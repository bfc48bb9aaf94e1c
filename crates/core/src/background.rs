//! The universal and scope-dependent background predicates (Sections 4.0
//! and 4.2).
//!
//! The **universal background predicate** `UBP` holds in every oolong
//! program: McCarthy's store axioms, the allocation axioms for `new(S)`
//! and `S⁺`, the inclusion connection (axiom (4)), transitivity of `≽`,
//! and — because every restricted program maintains them — the pivot
//! uniqueness axiom (6) and the acyclicity axiom (7). The last two are
//! omitted for the *naive* baseline checker, which models a system without
//! the paper's alias-confinement restrictions. Axiom (6) and its two array
//! analogues are encoded through a partial inverse of the store (the
//! `unique-value-owner` axiom), so they cost one instance per
//! distinguished read rather than one per pair of reads.
//!
//! The **scope-dependent background predicate** `BP_D` adds, per declared
//! attribute, the enumeration axioms for `⊒` and `→f` ((8) and (9)), the
//! ground inclusion facts they imply, and — for every declared non-pivot
//! field — the store-insensitivity of `≽` to its updates (a consequence of
//! the paper's insensitivity axiom specialised to a declared field, which
//! keeps E-matching tractable; the generic store-pair form quantifies over
//! two stores and has no usable trigger).

use crate::slice::SliceTables;
use oolong_logic::transform::FreshGen;
use oolong_logic::{
    Atom, Formula, Pattern, PatternPolicy, Phase, StableHasher, Symbol, Term, Trigger,
};
use oolong_sema::{AttrKind, Scope};
use std::hash::Hash;
use std::sync::OnceLock;

/// The single point where a background quantifier is built. Every axiom in
/// this file declares its [`PatternPolicy`] here, and the policy's trigger
/// list *is* the quantifier's trigger list — so the formula the prover
/// sees and the policy the scheduler honors can never disagree. The
/// policy-gate test (`tests/policy_gate.rs`) enforces that no other call
/// site in this file constructs a quantifier directly, which is what makes
/// heuristic trigger inference a user-level-only fallback.
fn declare(vars: Vec<Symbol>, policy: PatternPolicy, body: Formula) -> (Formula, PatternPolicy) {
    debug_assert!(
        policy.is_declared(),
        "background quantifiers must declare patterns"
    );
    let formula = Formula::forall(vars, policy.all_triggers(), body);
    (formula, policy)
}

/// A ground (quantifier-free) background fact: nothing to match, so the
/// policy declares no patterns and the phase is vacuously eager.
fn ground(formula: Formula) -> (Formula, PatternPolicy) {
    (formula, PatternPolicy::eager(Vec::new()))
}

/// One scope-background axiom: its stable name, the formula the prover
/// asserts, and its declared [`PatternPolicy`]. Names let slicing
/// decisions, telemetry and the slicing-soundness witness corpus refer to
/// axioms by name instead of by position. The policy's phase is the input
/// to the prover's two-phase schedule and to the engine's fingerprint
/// phase mask.
#[derive(Debug, Clone)]
pub struct Axiom {
    /// Stable name, parameterized by the declared attributes involved.
    pub name: String,
    /// The axiom as the prover asserts it.
    pub formula: Formula,
    /// The declared activation policy; its triggers are the formula's.
    pub policy: PatternPolicy,
}

/// The scope background of one checker, built once and shared by every VC
/// it generates: the axioms in assertion order, a stable digest of them,
/// and the relevance-slicing tables, built on the first slice taken.
///
/// The digest stands in for the axioms wherever a content address needs
/// them (the engine's fingerprint and context key), so those hash 16
/// bytes per obligation instead of the whole background.
#[derive(Debug)]
pub struct Background {
    axioms: Vec<Axiom>,
    digest: u128,
    tables: OnceLock<SliceTables>,
}

impl Background {
    /// Shares `axioms` as one background and computes its digest.
    pub fn new(axioms: Vec<Axiom>) -> Background {
        let mut hasher = StableHasher::new();
        axioms.len().hash(&mut hasher);
        for axiom in &axioms {
            axiom.name.hash(&mut hasher);
            axiom.formula.hash(&mut hasher);
            axiom.policy.triggers.hash(&mut hasher);
            axiom.policy.multi_patterns.hash(&mut hasher);
            // One byte per phase, independent of the enum's derived `Hash`.
            (axiom.policy.phase == Phase::GoalDirected).hash(&mut hasher);
        }
        Background {
            axioms,
            digest: hasher.finish128(),
            tables: OnceLock::new(),
        }
    }

    /// The axioms, in assertion order.
    pub fn axioms(&self) -> &[Axiom] {
        &self.axioms
    }

    /// The number of axioms.
    pub fn len(&self) -> usize {
        self.axioms.len()
    }

    /// Whether there are no axioms.
    pub fn is_empty(&self) -> bool {
        self.axioms.is_empty()
    }

    /// The axioms' formulas, in assertion order.
    pub fn formulas(&self) -> impl Iterator<Item = &Formula> + '_ {
        self.axioms.iter().map(|axiom| &axiom.formula)
    }

    /// A stable 128-bit digest of every axiom's name, formula, declared
    /// patterns and phase, in order.
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// The relevance-slicing tables of these axioms, built on first use.
    pub(crate) fn slice_tables(&self) -> &SliceTables {
        self.tables
            .get_or_init(|| SliceTables::new(self.formulas()))
    }

    /// The axioms `keep` selects, as one handle: see [`SlicedBackground`].
    pub fn sliced<'a>(&'a self, keep: &'a [bool]) -> SlicedBackground<'a> {
        debug_assert_eq!(
            keep.len(),
            self.len(),
            "keep mask must cover the background"
        );
        SlicedBackground {
            background: self,
            keep,
        }
    }
}

/// A relevance slice of a shared [`Background`]: the background and its
/// keep mask, borrowed. It identifies the kept formulas by the
/// background's digest and the mask, so it is hashed without touching a
/// formula.
#[derive(Debug, Clone, Copy)]
pub struct SlicedBackground<'a> {
    background: &'a Background,
    keep: &'a [bool],
}

impl<'a> SlicedBackground<'a> {
    /// The digest of the whole background (see [`Background::digest`]).
    pub fn digest(&self) -> u128 {
        self.background.digest
    }

    /// Which axioms are kept, index-aligned with the background.
    pub fn keep(&self) -> &'a [bool] {
        self.keep
    }

    /// The kept formulas, in order.
    pub fn formulas(&self) -> impl Iterator<Item = &'a Formula> + 'a {
        self.background
            .formulas()
            .zip(self.keep)
            .filter(|(_, &k)| k)
            .map(|(f, _)| f)
    }
}

/// The complete background a verification condition asserts for `scope`,
/// in assertion order: the universal background, then the
/// scope-dependent background, then — when `alias_restrictions` is off,
/// i.e. for the naive baseline — the closed-world additions.
///
/// `alias_restrictions` selects whether the consequences of pivot
/// uniqueness and owner exclusion (axioms (6) and (7)) are included; the
/// naive baseline sets it to `false`.
///
/// `arrays` selects the array-dependencies *language level*: scopes that
/// declare `maps elem` clauses or use index syntax are checked with the
/// extended axiom (4) and the slot axioms; plain scopes use the paper's
/// original system. Scope monotonicity holds within a level (an
/// arrays-level extension of a plain scope requires re-checking the plain
/// modules at the arrays level).
///
/// Bound variables are named from `fresh`. The checker builds this list
/// once, shares it as one [`Background`], and starts every VC's own names
/// from the state it leaves `fresh` in, so a VC's leading
/// `background_hyps` hypotheses are exactly these formulas.
pub fn axioms(
    scope: &Scope,
    alias_restrictions: bool,
    arrays: bool,
    fresh: &mut FreshGen,
) -> Vec<Axiom> {
    let mut axioms = universal_background(alias_restrictions, arrays, fresh);
    axioms.extend(scope_background(scope, fresh));
    if !alias_restrictions {
        axioms.extend(closed_world_background(scope, fresh));
    }
    axioms
        .into_iter()
        .map(|(name, formula, policy)| Axiom {
            name,
            formula,
            policy,
        })
        .collect()
}

/// The universal background predicate `UBP`.
fn universal_background(
    alias_restrictions: bool,
    arrays: bool,
    fresh: &mut FreshGen,
) -> Vec<(String, Formula, PatternPolicy)> {
    let mut axioms: Vec<(&'static str, (Formula, PatternPolicy))> = vec![
        ("select-update-same", select_update_same(fresh)),
        ("select-update-other", select_update_other(fresh)),
        ("new-unallocated", new_unallocated(fresh)),
        ("succ-allocates-new", succ_allocates_new(fresh)),
        ("succ-alive-iff", succ_alive_iff(fresh)),
        ("succ-preserves-select", succ_preserves_select(fresh)),
        ("update-preserves-alive", update_preserves_alive(fresh)),
        ("null-is-alive", null_is_alive(fresh)),
        ("reads-are-alive-or-null", reads_are_alive_or_null(fresh)),
        ("inclusion-connection", inclusion_connection(arrays, fresh)),
        ("inc-transitive", inc_transitive(fresh)),
        ("succ-preserves-inc", succ_preserves_inc(fresh)),
        ("local-inc-reflexive", local_inc_reflexive(fresh)),
        (
            "fresh-objects-are-objects",
            fresh_objects_are_objects(fresh),
        ),
    ];
    if arrays {
        axioms.push(("comparisons-are-ints", comparisons_are_ints(fresh)));
    }
    if alias_restrictions {
        axioms.push(("pivot-uniqueness", pivot_uniqueness(fresh)));
        axioms.push(("unique-value-owner", unique_value_owner(fresh)));
        axioms.push(("owner-acyclicity", owner_acyclicity(fresh)));
        axioms.push(("pivot-values-are-objects", pivot_values_are_objects(fresh)));
        if arrays {
            axioms.push(("slot-uniqueness", slot_uniqueness(fresh)));
            axioms.push(("slot-values-are-objects", slot_values_are_objects(fresh)));
            axioms.push((
                "owner-acyclicity-elem-array",
                owner_acyclicity_elem_array(fresh),
            ));
            axioms.push(("owner-acyclicity-element", owner_acyclicity_element(fresh)));
            axioms.push(("elem-pivot-uniqueness", elem_pivot_uniqueness(fresh)));
            axioms.push((
                "elem-pivot-values-are-objects",
                elem_pivot_values_are_objects(fresh),
            ));
            axioms.push(("pivots-are-attributes", pivots_are_attributes(fresh)));
        }
    }
    axioms
        .into_iter()
        .map(|(name, (f, policy))| (name.to_string(), f, policy))
        .collect()
}

/// The *closed-world* additions to the scope background used by the naive
/// baseline checker: the eventual program is assumed to declare **no**
/// inclusions beyond those visible in the scope. This is the classically
/// unsound design the paper's Section 3 dismantles — it makes `q` (§3.0)
/// checkable in the small scope, and then fails scope monotonicity the
/// moment the pivot declaration comes into view.
///
/// Both enumeration axioms are goal-directed: they fire once per rep/local
/// inclusion atom, and asserting them against a goalless background
/// enumerates the scope's whole declaration table into every context.
fn closed_world_background(
    scope: &Scope,
    fresh: &mut FreshGen,
) -> Vec<(String, Formula, PatternPolicy)> {
    let mut axioms = Vec::new();

    // ∀A,F,B :: A →F B ⇒ ⋁ declared triples.
    {
        let (av, fv, bv) = (fresh.fresh("cwA"), fresh.fresh("cwF"), fresh.fresh("cwB"));
        let atom = Atom::RepInc {
            group: Term::var(av),
            pivot: Term::var(fv),
            mapped: Term::var(bv),
        };
        let arms = scope
            .rep_triples()
            .into_iter()
            .map(|(g, f, b)| {
                Formula::and(vec![
                    Formula::eq(Term::var(av), Term::attr(scope.attr_info(g).name.clone())),
                    Formula::eq(Term::var(fv), Term::attr(scope.attr_info(f).name.clone())),
                    Formula::eq(Term::var(bv), Term::attr(scope.attr_info(b).name.clone())),
                ])
            })
            .collect();
        let (formula, policy) = declare(
            vec![av, fv, bv],
            PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Atom(atom)])]),
            Formula::implies(Formula::Atom(atom), Formula::or(arms)),
        );
        axioms.push(("closed-world-rep".to_string(), formula, policy));
    }

    // ∀G,A :: G ⊒ A ⇒ G = A ∨ ⋁ declared enclosing pairs.
    {
        let (gv, av) = (fresh.fresh("cwG"), fresh.fresh("cwA"));
        let atom = Atom::LocalInc(Term::var(gv), Term::var(av));
        let mut arms = vec![Formula::eq(Term::var(gv), Term::var(av))];
        for (attr, info) in scope.attrs() {
            for &g in scope.enclosing_groups(attr) {
                arms.push(Formula::and(vec![
                    Formula::eq(Term::var(gv), Term::attr(scope.attr_info(g).name.clone())),
                    Formula::eq(Term::var(av), Term::attr(info.name.clone())),
                ]));
            }
        }
        let (formula, policy) = declare(
            vec![gv, av],
            PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Atom(atom)])]),
            Formula::implies(Formula::Atom(atom), Formula::or(arms)),
        );
        axioms.push(("closed-world-local".to_string(), formula, policy));
    }

    axioms
}

/// The scope-dependent background predicate `BP_D`. The ground
/// inclusion facts are (vacuously) eager; the per-attribute and per-field
/// *enumeration* axioms are goal-directed — they fire on every ground
/// `⊒`/`→f` fact, so letting them run during goalless pre-saturation
/// enumerates the scope's whole declaration lattice (and, through the
/// `Iff` bodies' freshly interned arm atoms, re-triggers itself) in every
/// context whether or not an obligation ever asks.
fn scope_background(scope: &Scope, fresh: &mut FreshGen) -> Vec<(String, Formula, PatternPolicy)> {
    let mut axioms = Vec::new();

    for (attr_id, info) in scope.attrs() {
        let a = Term::attr(info.name.clone());
        // Ground reflexivity and the declared transitive enclosing groups.
        let (f, policy) = ground(Formula::Atom(Atom::LocalInc(a, a)));
        axioms.push((format!("local-inc-refl:{}", info.name), f, policy));
        for &g in scope.enclosing_groups(attr_id) {
            let g_name = &scope.attr_info(g).name;
            let (f, policy) = ground(Formula::Atom(Atom::LocalInc(Term::attr(g_name.clone()), a)));
            axioms.push((format!("local-inc:{}>{}", g_name, info.name), f, policy));
        }
        // Enumeration axiom for ⊒ into this attribute:
        //   ∀G :: G ⊒ a ⇔ (G = a ∨ G = g₁ ∨ … ∨ G = gₙ).
        let gv = fresh.fresh("bgG");
        let mut arms = vec![Formula::eq(Term::var(gv), a)];
        for &g in scope.enclosing_groups(attr_id) {
            arms.push(Formula::eq(
                Term::var(gv),
                Term::attr(scope.attr_info(g).name.clone()),
            ));
        }
        let atom = Atom::LocalInc(Term::var(gv), a);
        let (f, policy) = declare(
            vec![gv],
            PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Atom(atom)])]),
            Formula::Iff(Box::new(Formula::Atom(atom)), Box::new(Formula::or(arms))),
        );
        axioms.push((format!("local-inc-enum:{}", info.name), f, policy));

        if info.kind == AttrKind::Field {
            // Fields have no proper members: ∀B :: a ⊒ B ⇒ B = a. Members
            // attach to groups only (sema rejects `in` clauses naming a
            // field), so no scope extension can ever put an attribute
            // below a field — unlike the group enumeration, this closed
            // form is scope-monotone. It discharges owner-exclusion
            // obligations at calls whose refutation witness bottoms out
            // below a field-level modifies entry with a quantified
            // member attribute.
            let bv = fresh.fresh("bgB");
            let below = Atom::LocalInc(a, Term::var(bv));
            let (f, policy) = declare(
                vec![bv],
                PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Atom(below)])]),
                Formula::implies(Formula::Atom(below), Formula::eq(Term::var(bv), a)),
            );
            axioms.push((format!("local-inc-members:{}", info.name), f, policy));
            axioms.extend(field_rep_axioms(scope, attr_id, &a, fresh));
        }
    }

    // Ground rep-inclusion facts a →f b for every declared triple.
    for (g, f, b) in scope.rep_triples() {
        let (g_name, f_name, b_name) = (
            &scope.attr_info(g).name,
            &scope.attr_info(f).name,
            &scope.attr_info(b).name,
        );
        let (formula, policy) = ground(Formula::Atom(Atom::RepInc {
            group: Term::attr(g_name.clone()),
            pivot: Term::attr(f_name.clone()),
            mapped: Term::attr(b_name.clone()),
        }));
        axioms.push((format!("rep:{g_name}-{f_name}>{b_name}"), formula, policy));
    }
    // Ground elementwise facts a ⇉f b (array dependencies).
    for (g, f, b) in scope.rep_elem_triples() {
        let (g_name, f_name, b_name) = (
            &scope.attr_info(g).name,
            &scope.attr_info(f).name,
            &scope.attr_info(b).name,
        );
        let (formula, policy) = ground(Formula::Atom(Atom::RepIncElem {
            group: Term::attr(g_name.clone()),
            pivot: Term::attr(f_name.clone()),
            mapped: Term::attr(b_name.clone()),
        }));
        axioms.push((
            format!("rep-elem:{g_name}-{f_name}>{b_name}"),
            formula,
            policy,
        ));
    }

    // Read-frame inclusion: read frames license dereferences through `≽`
    // exactly like modifies lists, but where a modifies entry's reflexive
    // inclusion is pre-derived per-VC, read obligations ask about
    // arbitrary select chains. Scopes declaring read frames get the
    // reflexive case as a general axiom, goal-directed on the reflexive
    // inclusion atom itself (it is derivable from `local-inc-reflexive`
    // via the inclusion connection; asserting it directly saves a
    // matching generation on every read license).
    if scope.has_read_frames() {
        let (s, x, a) = (fresh.fresh("rfS"), fresh.fresh("rfX"), fresh.fresh("rfA"));
        let atom = Atom::Inc {
            store: Term::var(s),
            obj: Term::var(x),
            attr: Term::var(a),
            obj2: Term::var(x),
            attr2: Term::var(a),
        };
        let (formula, policy) = declare(
            vec![s, x, a],
            PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Atom(atom)])]),
            Formula::Atom(atom),
        );
        axioms.push(("read-frame-inc-reflexive".to_string(), formula, policy));
    }

    axioms
}

fn field_rep_axioms(
    scope: &Scope,
    field: oolong_sema::AttrId,
    f: &Term,
    fresh: &mut FreshGen,
) -> Vec<(String, Formula, PatternPolicy)> {
    let mut axioms = Vec::new();
    let field_name = &scope.attr_info(field).name;
    let mapped = scope.mapped_attrs(field);
    axioms.extend(field_rep_elem_axioms(scope, field, f, fresh));

    // Axiom (8): ∀A,B :: A →f B ⇒ (B = b₁ ∨ … ∨ B = bₙ); empty → ¬(A →f B).
    {
        let av = fresh.fresh("bgA");
        let bv = fresh.fresh("bgB");
        let atom = Atom::RepInc {
            group: Term::var(av),
            pivot: *f,
            mapped: Term::var(bv),
        };
        let arms = mapped
            .iter()
            .map(|&b| Formula::eq(Term::var(bv), Term::attr(scope.attr_info(b).name.clone())))
            .collect();
        let (formula, policy) = declare(
            vec![av, bv],
            PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Atom(atom)])]),
            Formula::implies(Formula::Atom(atom), Formula::or(arms)),
        );
        axioms.push((format!("rep-range:{field_name}"), formula, policy));
    }

    // Axiom (9), per mapped attribute b:
    //   ∀A :: A →f b ⇔ (A = a₁ ∨ … ∨ A = aₙ).
    for &b in &mapped {
        let av = fresh.fresh("bgA");
        let b_name = &scope.attr_info(b).name;
        let b_term = Term::attr(b_name.clone());
        let atom = Atom::RepInc {
            group: Term::var(av),
            pivot: *f,
            mapped: b_term,
        };
        let arms = scope
            .mappers(field, b)
            .iter()
            .map(|&a| Formula::eq(Term::var(av), Term::attr(scope.attr_info(a).name.clone())))
            .collect();
        let (formula, policy) = declare(
            vec![av],
            PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Atom(atom)])]),
            Formula::Iff(Box::new(Formula::Atom(atom)), Box::new(Formula::or(arms))),
        );
        axioms.push((
            format!("rep-mappers:{field_name}>{b_name}"),
            formula,
            policy,
        ));
    }

    // Store-insensitivity of ≽ to updates of a declared non-pivot field
    // (no ordinary and no elementwise maps clauses):
    //   ∀S,Z,V,X,A,Y,B :: (S(Z·f := V) ⊨ X·A ≽ Y·B) ⇔ (S ⊨ X·A ≽ Y·B).
    if mapped.is_empty() && scope.mapped_attrs_kind(field, true).is_empty() {
        let (s, z, v, x, a, y, b) = (
            fresh.fresh("bgS"),
            fresh.fresh("bgZ"),
            fresh.fresh("bgV"),
            fresh.fresh("bgX"),
            fresh.fresh("bgA"),
            fresh.fresh("bgY"),
            fresh.fresh("bgB"),
        );
        let updated = Term::update(Term::var(s), Term::var(z), *f, Term::var(v));
        let inc_upd = Atom::Inc {
            store: updated,
            obj: Term::var(x),
            attr: Term::var(a),
            obj2: Term::var(y),
            attr2: Term::var(b),
        };
        let inc_base = Atom::Inc {
            store: Term::var(s),
            obj: Term::var(x),
            attr: Term::var(a),
            obj2: Term::var(y),
            attr2: Term::var(b),
        };
        // Query-driven: one trigger on the post-update side only. Nothing
        // in a goalless background contains an update term, so the axiom
        // is goal-directed — it can only fire once an obligation's
        // post-state `≽` queries exist.
        let (formula, policy) = declare(
            vec![s, z, v, x, a, y, b],
            PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Atom(inc_upd)])]),
            Formula::Iff(
                Box::new(Formula::Atom(inc_upd)),
                Box::new(Formula::Atom(inc_base)),
            ),
        );
        axioms.push((format!("store-insensitive:{field_name}"), formula, policy));
    }

    axioms
}

/// The elementwise analogues of axioms (8) and (9) for a declared field:
/// the `maps elem` clauses of `f` fully determine `· ⇉f ·`.
fn field_rep_elem_axioms(
    scope: &Scope,
    field: oolong_sema::AttrId,
    f: &Term,
    fresh: &mut FreshGen,
) -> Vec<(String, Formula, PatternPolicy)> {
    let mut axioms = Vec::new();
    let field_name = &scope.attr_info(field).name;
    let mapped = scope.mapped_attrs_kind(field, true);

    // (8)-elem: ∀A,B :: A ⇉f B ⇒ (B = b₁ ∨ …); empty → ¬(A ⇉f B).
    {
        let av = fresh.fresh("bgA");
        let bv = fresh.fresh("bgB");
        let atom = Atom::RepIncElem {
            group: Term::var(av),
            pivot: *f,
            mapped: Term::var(bv),
        };
        let arms = mapped
            .iter()
            .map(|&b| Formula::eq(Term::var(bv), Term::attr(scope.attr_info(b).name.clone())))
            .collect();
        let (formula, policy) = declare(
            vec![av, bv],
            PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Atom(atom)])]),
            Formula::implies(Formula::Atom(atom), Formula::or(arms)),
        );
        axioms.push((format!("rep-elem-range:{field_name}"), formula, policy));
    }

    // (9)-elem, per mapped attribute b: ∀A :: A ⇉f b ⇔ (A = a₁ ∨ …).
    for &b in &mapped {
        let av = fresh.fresh("bgA");
        let b_name = &scope.attr_info(b).name;
        let b_term = Term::attr(b_name.clone());
        let atom = Atom::RepIncElem {
            group: Term::var(av),
            pivot: *f,
            mapped: b_term,
        };
        let arms = scope
            .mappers_kind(field, b, true)
            .iter()
            .map(|&a| Formula::eq(Term::var(av), Term::attr(scope.attr_info(a).name.clone())))
            .collect();
        let (formula, policy) = declare(
            vec![av],
            PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Atom(atom)])]),
            Formula::Iff(Box::new(Formula::Atom(atom)), Box::new(Formula::or(arms))),
        );
        axioms.push((
            format!("rep-elem-mappers:{field_name}>{b_name}"),
            formula,
            policy,
        ));
    }

    axioms
}

// ----------------------------------------------------------------- UBP parts

/// `∀S,X,A,V :: select(S(X·A := V), X, A) = V`.
fn select_update_same(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, x, a, v) = (
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
        fresh.fresh("ubA"),
        fresh.fresh("ubV"),
    );
    let upd = Term::update(Term::var(s), Term::var(x), Term::var(a), Term::var(v));
    let body = Formula::eq(Term::select(upd, Term::var(x), Term::var(a)), Term::var(v));
    declare(
        vec![s, x, a, v],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Term(upd)])]),
        body,
    )
}

/// `∀S,X,A,V,Y,B :: (X = Y ∧ A = B) ∨ select(S(X·A := V), Y, B) = select(S, Y, B)`.
fn select_update_other(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, x, a, v, y, b) = (
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
        fresh.fresh("ubA"),
        fresh.fresh("ubV"),
        fresh.fresh("ubY"),
        fresh.fresh("ubB"),
    );
    let upd = Term::update(Term::var(s), Term::var(x), Term::var(a), Term::var(v));
    let read = Term::select(upd, Term::var(y), Term::var(b));
    let body = Formula::or(vec![
        Formula::and(vec![
            Formula::eq(Term::var(x), Term::var(y)),
            Formula::eq(Term::var(a), Term::var(b)),
        ]),
        Formula::eq(read, Term::select(Term::var(s), Term::var(y), Term::var(b))),
    ]);
    declare(
        vec![s, x, a, v, y, b],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Term(read)])]),
        body,
    )
}

/// `∀S :: ¬alive(S, new(S)) ∧ new(S) ≠ null`.
fn new_unallocated(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let s = fresh.fresh("ubS");
    let new = Term::new_obj(Term::var(s));
    let body = Formula::and(vec![
        Formula::not(Formula::Atom(Atom::Alive(Term::var(s), new))),
        Formula::neq(new, Term::null()),
    ]);
    declare(
        vec![s],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Term(new)])]),
        body,
    )
}

/// `∀S :: alive(S⁺, new(S))`.
fn succ_allocates_new(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let s = fresh.fresh("ubS");
    let succ = Term::succ(Term::var(s));
    let body = Formula::Atom(Atom::Alive(succ, Term::new_obj(Term::var(s))));
    declare(
        vec![s],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Term(succ)])]),
        body,
    )
}

/// `∀S,X :: alive(S⁺, X) ⇔ (alive(S, X) ∨ X = new(S))` — `S ⊑ S⁺` and
/// `S⁺` allocates exactly `new(S)`, stated as a single query-driven
/// equivalence (it fires only when some `alive(S⁺, X)` node exists, which
/// keeps instantiation from fanning out over every store/object pair).
fn succ_alive_iff(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, x) = (fresh.fresh("ubS"), fresh.fresh("ubX"));
    let post = Atom::Alive(Term::succ(Term::var(s)), Term::var(x));
    let pre = Formula::or(vec![
        Formula::Atom(Atom::Alive(Term::var(s), Term::var(x))),
        Formula::eq(Term::var(x), Term::new_obj(Term::var(s))),
    ]);
    declare(
        vec![s, x],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Atom(post)])]),
        Formula::Iff(Box::new(Formula::Atom(post)), Box::new(pre)),
    )
}

/// `∀S,X,A :: select(S⁺, X, A) = select(S, X, A)` (other half of `S ⊑ S⁺`,
/// strengthened to all objects — allocation does not change any attribute
/// value).
fn succ_preserves_select(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, x, a) = (fresh.fresh("ubS"), fresh.fresh("ubX"), fresh.fresh("ubA"));
    let succ = Term::succ(Term::var(s));
    let post = Term::select(succ, Term::var(x), Term::var(a));
    let pre = Term::select(Term::var(s), Term::var(x), Term::var(a));
    let triggers = vec![
        Trigger(vec![Pattern::Term(post)]),
        Trigger(vec![Pattern::Term(pre), Pattern::Term(succ)]),
    ];
    declare(
        vec![s, x, a],
        PatternPolicy::eager(triggers),
        Formula::eq(post, pre),
    )
}

/// `∀S,Z,F,V,X :: alive(S(Z·F := V), X) ⇔ alive(S, X)` — field updates do
/// not allocate.
fn update_preserves_alive(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, z, fv, v, x) = (
        fresh.fresh("ubS"),
        fresh.fresh("ubZ"),
        fresh.fresh("ubF"),
        fresh.fresh("ubV"),
        fresh.fresh("ubX"),
    );
    let upd = Term::update(Term::var(s), Term::var(z), Term::var(fv), Term::var(v));
    let post = Atom::Alive(upd, Term::var(x));
    let pre = Atom::Alive(Term::var(s), Term::var(x));
    // Query-driven: one trigger on the post-update side only.
    declare(
        vec![s, z, fv, v, x],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Atom(post)])]),
        Formula::Iff(Box::new(Formula::Atom(post)), Box::new(Formula::Atom(pre))),
    )
}

/// `∀S,X :: alive(S, null)` — `null` (like every non-object value) counts
/// as allocated; only genuinely fresh objects are non-alive. Triggered by
/// any aliveness query on the store and non-splitting: congruence links it
/// to `alive(S, v)` queries once `v = null` is known.
fn null_is_alive(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, x) = (fresh.fresh("ubS"), fresh.fresh("ubX"));
    let query = Atom::Alive(Term::var(s), Term::var(x));
    let fact = Atom::Alive(Term::var(s), Term::null());
    declare(
        vec![s, x],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Atom(query)])]),
        Formula::Atom(fact),
    )
}

/// `∀S,X,A :: select(S, X, A) = null ∨ alive(S, select(S, X, A))` — in
/// every store the semantics constructs, field values are null or
/// allocated (objects enter the store only through evaluated expressions,
/// which denote allocated values). This is the standard "reachable store"
/// axiom ESC-style checkers add; §3.0's `q` needs it to know the value
/// returned through `result.obj` is not a fresh object the callee could
/// freely mutate.
fn reads_are_alive_or_null(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, x, a, s2) = (
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
        fresh.fresh("ubA"),
        fresh.fresh("ubS"),
    );
    let read = Term::select(Term::var(s), Term::var(x), Term::var(a));
    let body = Formula::or(vec![
        Formula::eq(read, Term::null()),
        Formula::Atom(Atom::Alive(Term::var(s), read)),
    ]);
    // Query-driven: fires only when the aliveness of a read is in
    // question (in any store S2), not for every select term.
    let query = Atom::Alive(Term::var(s2), read);
    declare(
        vec![s, x, a, s2],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Atom(query)])]),
        body,
    )
}

/// `a < b` or `a ≤ b` being *true* implies both operands are integers:
/// comparisons of non-integers go wrong operationally, so on every
/// surviving path the operands are integers. This is how `assume i >= 0`
/// lets the checker conclude `isInt(i)` for an array index parameter.
fn comparisons_are_ints(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (a, b) = (fresh.fresh("ubA"), fresh.fresh("ubB"));
    let lt = Atom::Lt(Term::var(a), Term::var(b));
    let le = Atom::Le(Term::var(a), Term::var(b));
    let ints = Formula::and(vec![
        Formula::Atom(Atom::IsInt(Term::var(a))),
        Formula::Atom(Atom::IsInt(Term::var(b))),
    ]);
    declare(
        vec![a, b],
        PatternPolicy::eager(vec![
            Trigger(vec![Pattern::Atom(lt)]),
            Trigger(vec![Pattern::Atom(le)]),
        ]),
        Formula::and(vec![
            Formula::implies(Formula::Atom(lt), ints.clone()),
            Formula::implies(Formula::Atom(le), ints),
        ]),
    )
}

/// The inclusion connection, axiom (4), extended with the array
/// dependencies of §6:
///
/// ```text
/// S ⊨ X·A ≽ Y·B  ⇔  (X = Y ∧ A ⊒ B)
///                 ∨ (X ≠ Y ∧ Y ≠ null ∧ (∃Z,H,F,K :: S ⊨ X·A ≽ Z·H ∧ H →F K
///                                        ∧ Y = S(Z·F) ∧ K ⊒ B))
///                 ∨ (X ≠ Y ∧ Y ≠ null ∧ isInt(B)
///                    ∧ (∃Z,H,F,K :: S ⊨ X·A ≽ Z·H ∧ H ⇉F K ∧ Y = S(Z·F)))
///                 ∨ (X ≠ Y ∧ Y ≠ null
///                    ∧ (∃Z,H,F,K,R,I :: S ⊨ X·A ≽ Z·H ∧ H ⇉F K ∧ R = S(Z·F)
///                       ∧ R ≠ null ∧ isInt(I) ∧ Y = S(R·I) ∧ K ⊒ B))
/// ```
///
/// The third disjunct licenses every integer slot of an elem-pivot's
/// array; the fourth licenses attribute `B` (under `K ⊒ B`) of every
/// element stored in those slots.
///
/// The `Y ≠ null` conjunct reflects that rep chains reach locations of
/// real representation objects only; without it, an extension's null pivot
/// would give callees license on locations of `null`, making §3.0's `q`
/// unverifiable.
fn inclusion_connection(arrays: bool, fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, x, a, y, b) = (
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
        fresh.fresh("ubA"),
        fresh.fresh("ubY"),
        fresh.fresh("ubB"),
    );
    let (z, h, f, k) = (
        fresh.fresh("ubZ"),
        fresh.fresh("ubH"),
        fresh.fresh("ubF"),
        fresh.fresh("ubK"),
    );
    let inc = Atom::Inc {
        store: Term::var(s),
        obj: Term::var(x),
        attr: Term::var(a),
        obj2: Term::var(y),
        attr2: Term::var(b),
    };
    let local_case = Formula::and(vec![
        Formula::eq(Term::var(x), Term::var(y)),
        Formula::Atom(Atom::LocalInc(Term::var(a), Term::var(b))),
    ]);
    let chain_inc = Atom::Inc {
        store: Term::var(s),
        obj: Term::var(x),
        attr: Term::var(a),
        obj2: Term::var(z),
        attr2: Term::var(h),
    };
    let chain_rep = Atom::RepInc {
        group: Term::var(h),
        pivot: Term::var(f),
        mapped: Term::var(k),
    };
    let chain_read = Term::select(Term::var(s), Term::var(z), Term::var(f));
    let chain = Formula::exists_with_triggers(
        vec![z, h, f, k],
        // Selective triggers for the negated (universal) reading: an
        // inclusion prefix + rep declaration, or a pivot read + rep
        // declaration.
        vec![
            Trigger(vec![Pattern::Atom(chain_inc), Pattern::Atom(chain_rep)]),
            Trigger(vec![Pattern::Term(chain_read), Pattern::Atom(chain_rep)]),
        ],
        Formula::and(vec![
            Formula::Atom(chain_inc),
            Formula::Atom(chain_rep),
            Formula::eq(
                Term::var(y),
                Term::select(Term::var(s), Term::var(z), Term::var(f)),
            ),
            Formula::Atom(Atom::LocalInc(Term::var(k), Term::var(b))),
        ]),
    );
    // Factor the common guards: X ≠ Y ∧ Y ≠ null apply to every
    // non-local case; keeping them shared cuts case-split fan-out.
    let mut chains = vec![chain];
    if arrays {
        chains.push(Formula::and(vec![
            Formula::Atom(Atom::IsInt(Term::var(b))),
            slot_chain_body(fresh, s, x, a, y),
        ]));
        chains.push(elem_chain_body(fresh, s, x, a, y, b));
    }
    let nonlocal_case = Formula::and(vec![
        Formula::neq(Term::var(x), Term::var(y)),
        Formula::neq(Term::var(y), Term::null()),
        Formula::or(chains),
    ]);
    // Eager despite its size: the trigger is an `≽` atom, and a goalless
    // background contains none, so pre-saturation never fires it — while
    // gating it would clone its (large) body into every obligation frame.
    declare(
        vec![s, x, a, y, b],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Atom(inc)])]),
        Formula::Iff(
            Box::new(Formula::Atom(inc)),
            Box::new(Formula::or(vec![local_case, nonlocal_case])),
        ),
    )
}

/// The elementwise *slot* chain of extended axiom (4):
/// `∃Z,H,F,K :: S ⊨ X·A ≽ Z·H ∧ H ⇉F K ∧ Y = S(Z·F)`.
fn slot_chain_body(fresh: &mut FreshGen, s: Symbol, x: Symbol, a: Symbol, y: Symbol) -> Formula {
    let (z, h, f, k) = (
        fresh.fresh("ubZ"),
        fresh.fresh("ubH"),
        fresh.fresh("ubF"),
        fresh.fresh("ubK"),
    );
    let inc = Atom::Inc {
        store: Term::var(s),
        obj: Term::var(x),
        attr: Term::var(a),
        obj2: Term::var(z),
        attr2: Term::var(h),
    };
    let rep = Atom::RepIncElem {
        group: Term::var(h),
        pivot: Term::var(f),
        mapped: Term::var(k),
    };
    let read = Term::select(Term::var(s), Term::var(z), Term::var(f));
    Formula::exists_with_triggers(
        vec![z, h, f, k],
        vec![
            Trigger(vec![Pattern::Atom(inc), Pattern::Atom(rep)]),
            Trigger(vec![Pattern::Term(read), Pattern::Atom(rep)]),
        ],
        Formula::and(vec![
            Formula::Atom(inc),
            Formula::Atom(rep),
            Formula::eq(Term::var(y), read),
        ]),
    )
}

/// The elementwise *element* chain of extended axiom (4):
/// `∃Z,H,F,K,R,I :: S ⊨ X·A ≽ Z·H ∧ H ⇉F K ∧ R = S(Z·F) ∧ R ≠ null
///                 ∧ isInt(I) ∧ Y = S(R·I) ∧ K ⊒ B`.
fn elem_chain_body(
    fresh: &mut FreshGen,
    s: Symbol,
    x: Symbol,
    a: Symbol,
    y: Symbol,
    b: Symbol,
) -> Formula {
    let (z, h, f, k, i) = (
        fresh.fresh("ubZ"),
        fresh.fresh("ubH"),
        fresh.fresh("ubF"),
        fresh.fresh("ubK"),
        fresh.fresh("ubI"),
    );
    let inc = Atom::Inc {
        store: Term::var(s),
        obj: Term::var(x),
        attr: Term::var(a),
        obj2: Term::var(z),
        attr2: Term::var(h),
    };
    let rep = Atom::RepIncElem {
        group: Term::var(h),
        pivot: Term::var(f),
        mapped: Term::var(k),
    };
    let arr = Term::select(Term::var(s), Term::var(z), Term::var(f));
    let slot = Term::select(Term::var(s), arr, Term::var(i));
    Formula::exists_with_triggers(
        vec![z, h, f, k, i],
        // The nested slot-read pattern keeps the negated reading from
        // firing on every select pair.
        vec![
            Trigger(vec![
                Pattern::Atom(inc),
                Pattern::Atom(rep),
                Pattern::Term(slot),
            ]),
            Trigger(vec![Pattern::Term(slot), Pattern::Atom(rep)]),
        ],
        Formula::and(vec![
            Formula::Atom(inc),
            Formula::Atom(rep),
            Formula::neq(arr, Term::null()),
            Formula::Atom(Atom::IsInt(Term::var(i))),
            Formula::eq(Term::var(y), slot),
            Formula::Atom(Atom::LocalInc(Term::var(k), Term::var(b))),
        ]),
    )
}

/// Transitivity of `≽` (stated as a universal background axiom in §4.0).
fn inc_transitive(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, x, a, y, b, z, c) = (
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
        fresh.fresh("ubA"),
        fresh.fresh("ubY"),
        fresh.fresh("ubB"),
        fresh.fresh("ubZ"),
        fresh.fresh("ubC"),
    );
    let first = Atom::Inc {
        store: Term::var(s),
        obj: Term::var(x),
        attr: Term::var(a),
        obj2: Term::var(y),
        attr2: Term::var(b),
    };
    let second = Atom::Inc {
        store: Term::var(s),
        obj: Term::var(y),
        attr: Term::var(b),
        obj2: Term::var(z),
        attr2: Term::var(c),
    };
    let conclusion = Atom::Inc {
        store: Term::var(s),
        obj: Term::var(x),
        attr: Term::var(a),
        obj2: Term::var(z),
        attr2: Term::var(c),
    };
    // MPAT: both premise inclusions must match under one binding. Goal
    // directed — transitivity chains grow quadratically when saturated
    // without a goal to aim the chain at.
    let trigger = Trigger(vec![Pattern::Atom(first), Pattern::Atom(second)]);
    declare(
        vec![s, x, a, y, b, z, c],
        PatternPolicy::goal_directed(vec![trigger]),
        Formula::implies(
            Formula::and(vec![Formula::Atom(first), Formula::Atom(second)]),
            Formula::Atom(conclusion),
        ),
    )
}

/// `≽` is insensitive to allocation: `S⁺ ⊨ X·A ≽ Y·B ⇔ S ⊨ X·A ≽ Y·B`
/// (a special case of the paper's store-insensitivity axiom — `S` and `S⁺`
/// agree on every attribute value).
fn succ_preserves_inc(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, x, a, y, b) = (
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
        fresh.fresh("ubA"),
        fresh.fresh("ubY"),
        fresh.fresh("ubB"),
    );
    let succ = Term::succ(Term::var(s));
    let inc_succ = Atom::Inc {
        store: succ,
        obj: Term::var(x),
        attr: Term::var(a),
        obj2: Term::var(y),
        attr2: Term::var(b),
    };
    let inc_base = Atom::Inc {
        store: Term::var(s),
        obj: Term::var(x),
        attr: Term::var(a),
        obj2: Term::var(y),
        attr2: Term::var(b),
    };
    // Query-driven: one trigger on the post-allocation side only.
    declare(
        vec![s, x, a, y, b],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Atom(inc_succ)])]),
        Formula::Iff(
            Box::new(Formula::Atom(inc_succ)),
            Box::new(Formula::Atom(inc_base)),
        ),
    )
}

/// `∀A :: A ⊒ A` — reflexivity of the local inclusion relation, triggered
/// only when a reflexive query term exists.
fn local_inc_reflexive(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let a = fresh.fresh("ubA");
    let atom = Atom::LocalInc(Term::var(a), Term::var(a));
    declare(
        vec![a],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Atom(atom)])]),
        Formula::Atom(atom),
    )
}

/// The uninterpreted symbols of the partial-inverse encoding of axiom (6)
/// and its array analogues. `val(S, v)` says that `v` is the non-null
/// value of a *distinguished* location of store `S` — a pivot field, an
/// elem-pivot field or an integer slot — and `own(S, v)`, `fld(S, v)`
/// name that location. No program or prover symbol can collide with
/// them: program names are identifiers (no `.`), no VC contains a
/// program-named uninterpreted function, and skolem names contain `!`.
const UNIQUE_VAL: &str = "uniq.val";
const UNIQUE_OWN: &str = "uniq.own";
const UNIQUE_FLD: &str = "uniq.fld";

/// `name(S, S(X·F))`: one of the inverse functions applied to a read.
fn at_read(name: &str, s: Symbol, x: Symbol, f: Symbol) -> Term {
    let read = Term::select(Term::var(s), Term::var(x), Term::var(f));
    Term::uninterp(name, vec![Term::var(s), read])
}

/// `own(S, S(X·F)) = X ∧ fld(S, S(X·F)) = F`: the read's location, as
/// the inverse functions name it.
fn located_at(s: Symbol, x: Symbol, f: Symbol) -> Formula {
    Formula::and(vec![
        Formula::eq(at_read(UNIQUE_OWN, s, x, f), Term::var(x)),
        Formula::eq(at_read(UNIQUE_FLD, s, x, f), Term::var(f)),
    ])
}

/// `val(S, S(X·F)) ∧ own(S, S(X·F)) = X ∧ fld(S, S(X·F)) = F`: the
/// conclusion the three uniqueness axioms share.
fn distinguished_read(s: Symbol, x: Symbol, f: Symbol) -> Formula {
    Formula::and(vec![
        Formula::Atom(Atom::BoolTerm(at_read(UNIQUE_VAL, s, x, f))),
        located_at(s, x, f),
    ])
}

/// Axiom (6): non-null pivot values are unique. The paper states it over
/// a pair of reads,
///
/// ```text
/// G →F A ∧ S(X·F) ≠ null ∧ S(X·F) = S(Y·B) ⇒ X = Y ∧ F = B
/// ```
///
/// and a trigger joining both reads matches once per *pair* of select
/// terms. It is encoded instead by a partial inverse of the store
/// (injectivity as in Moskal, "Programming with Triggers", 2009): each
/// non-null pivot read records its own location,
///
/// ```text
/// G →F A ∧ S(X·F) ≠ null
///   ⇒ val(S, S(X·F)) ∧ own(S, S(X·F)) = X ∧ fld(S, S(X·F)) = F
/// ```
///
/// and [`unique_value_owner`] maps every read of a recorded value back to
/// that location. See there for why the pair is equivalent to (6).
fn pivot_uniqueness(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (g, f, a, s, x) = (
        fresh.fresh("ubG"),
        fresh.fresh("ubF"),
        fresh.fresh("ubA"),
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
    );
    let rep = Atom::RepInc {
        group: Term::var(g),
        pivot: Term::var(f),
        mapped: Term::var(a),
    };
    let pivot_read = Term::select(Term::var(s), Term::var(x), Term::var(f));
    let antecedent = Formula::and(vec![
        Formula::Atom(rep),
        Formula::neq(pivot_read, Term::null()),
    ]);
    let trigger = Trigger(vec![Pattern::Atom(rep), Pattern::Term(pivot_read)]);
    declare(
        vec![g, f, a, s, x],
        PatternPolicy::goal_directed(vec![trigger]),
        Formula::implies(antecedent, distinguished_read(s, x, f)),
    )
}

/// The inverse half of the uniqueness encoding: every read of a value
/// that some distinguished location holds is a read of that location —
///
/// ```text
/// val(S, S(Y·B)) ⇒ own(S, S(Y·B)) = Y ∧ fld(S, S(Y·B)) = B
/// ```
///
/// It fires once per read of an already-recorded value, where the paired
/// form of (6) fired once per pair of reads. The encoding is equivalent
/// to the paired axioms:
///
/// * *New ⇒ old.* Given `S(X·F) ≠ null` with `X·F` distinguished and
///   `S(X·F) = S(Y·B)`, [`pivot_uniqueness`] (or its array analogue)
///   yields `val(S, S(X·F))`, `own(S, S(X·F)) = X` and
///   `fld(S, S(X·F)) = F`; this axiom, at the read `S(Y·B)` of the same
///   value, yields `own(…) = Y` and `fld(…) = B`. So `X = Y ∧ F = B`.
/// * *Old ⇒ new.* In any model of the paired axioms, interpret
///   `val(S, v)` as "`v` is the non-null value of some distinguished
///   location in `S`" and `own(S, v)`, `fld(S, v)` as that location's
///   object and attribute. The paired axioms make the location unique,
///   so the interpretation is well defined and satisfies both halves.
///
/// The naive baseline asserts none of the uniqueness axioms, so its
/// verdicts cannot move.
fn unique_value_owner(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, y, b) = (fresh.fresh("ubS"), fresh.fresh("ubY"), fresh.fresh("ubB"));
    let val = at_read(UNIQUE_VAL, s, y, b);
    declare(
        vec![s, y, b],
        PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Term(val)])]),
        Formula::implies(Formula::Atom(Atom::BoolTerm(val)), located_at(s, y, b)),
    )
}

/// Axiom (7): no location of a pivot-referenced object includes a group of
/// its owner —
///
/// ```text
/// G →F A ∧ Y = S(X·F) ∧ Y ≠ null ⇒ ¬(S ⊨ Y·B ≽ X·G)
/// ```
fn owner_acyclicity(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (g, f, a, s, x, y, b) = (
        fresh.fresh("ubG"),
        fresh.fresh("ubF"),
        fresh.fresh("ubA"),
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
        fresh.fresh("ubY"),
        fresh.fresh("ubB"),
    );
    let rep = Atom::RepInc {
        group: Term::var(g),
        pivot: Term::var(f),
        mapped: Term::var(a),
    };
    let inc = Atom::Inc {
        store: Term::var(s),
        obj: Term::var(y),
        attr: Term::var(b),
        obj2: Term::var(x),
        attr2: Term::var(g),
    };
    let antecedent = Formula::and(vec![
        Formula::Atom(rep),
        Formula::eq(
            Term::var(y),
            Term::select(Term::var(s), Term::var(x), Term::var(f)),
        ),
        Formula::neq(Term::var(y), Term::null()),
    ]);
    let trigger = Trigger(vec![Pattern::Atom(rep), Pattern::Atom(inc)]);
    declare(
        vec![g, f, a, s, x, y, b],
        PatternPolicy::goal_directed(vec![trigger]),
        Formula::implies(antecedent, Formula::not(Formula::Atom(inc))),
    )
}

/// A consequence of the pivot uniqueness restriction: pivot fields are only
/// ever assigned `new()` or `null`, so their values are `null` or object
/// references —
///
/// ```text
/// G →F A ⇒ S(X·F) = null ∨ isObj(S(X·F))
/// ```
///
/// Without this, owner exclusion could not be discharged for non-object
/// arguments (e.g. the literal `3` in the paper's `push(st, 3)`): nothing
/// else rules out an extension's pivot field holding `3`.
fn pivot_values_are_objects(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (g, f, a, s, x) = (
        fresh.fresh("ubG"),
        fresh.fresh("ubF"),
        fresh.fresh("ubA"),
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
    );
    let rep = Atom::RepInc {
        group: Term::var(g),
        pivot: Term::var(f),
        mapped: Term::var(a),
    };
    let read = Term::select(Term::var(s), Term::var(x), Term::var(f));
    let body = Formula::implies(
        Formula::Atom(rep),
        Formula::or(vec![
            Formula::eq(read, Term::null()),
            Formula::Atom(Atom::IsObj(read)),
        ]),
    );
    let trigger = Trigger(vec![Pattern::Atom(rep), Pattern::Term(read)]);
    declare(
        vec![g, f, a, s, x],
        PatternPolicy::goal_directed(vec![trigger]),
        body,
    )
}

/// The (7)-analogue for elem-pivot arrays: no location of the array
/// referenced by an elem-pivot includes a group of its owner —
///
/// ```text
/// G ⇉F A ∧ Y = S(X·F) ∧ Y ≠ null ⇒ ¬(S ⊨ Y·B ≽ X·G)
/// ```
fn owner_acyclicity_elem_array(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (g, f, a, s, x, y, b) = (
        fresh.fresh("ubG"),
        fresh.fresh("ubF"),
        fresh.fresh("ubA"),
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
        fresh.fresh("ubY"),
        fresh.fresh("ubB"),
    );
    let rep = Atom::RepIncElem {
        group: Term::var(g),
        pivot: Term::var(f),
        mapped: Term::var(a),
    };
    let inc = Atom::Inc {
        store: Term::var(s),
        obj: Term::var(y),
        attr: Term::var(b),
        obj2: Term::var(x),
        attr2: Term::var(g),
    };
    let antecedent = Formula::and(vec![
        Formula::Atom(rep),
        Formula::eq(
            Term::var(y),
            Term::select(Term::var(s), Term::var(x), Term::var(f)),
        ),
        Formula::neq(Term::var(y), Term::null()),
    ]);
    let trigger = Trigger(vec![Pattern::Atom(rep), Pattern::Atom(inc)]);
    declare(
        vec![g, f, a, s, x, y, b],
        PatternPolicy::goal_directed(vec![trigger]),
        Formula::implies(antecedent, Formula::not(Formula::Atom(inc))),
    )
}

/// The (7)-analogue for array elements: no location of an element stored in
/// an elem-pivot's array includes a group of the array's owner —
///
/// ```text
/// G ⇉F A ∧ R = S(X·F) ∧ R ≠ null ∧ isInt(I) ∧ E = S(R·I) ∧ E ≠ null
///   ⇒ ¬(S ⊨ E·B ≽ X·G)
/// ```
fn owner_acyclicity_element(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (g, f, a, s, x, r, i, e, b) = (
        fresh.fresh("ubG"),
        fresh.fresh("ubF"),
        fresh.fresh("ubA"),
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
        fresh.fresh("ubR"),
        fresh.fresh("ubI"),
        fresh.fresh("ubE"),
        fresh.fresh("ubB"),
    );
    let rep = Atom::RepIncElem {
        group: Term::var(g),
        pivot: Term::var(f),
        mapped: Term::var(a),
    };
    let inc = Atom::Inc {
        store: Term::var(s),
        obj: Term::var(e),
        attr: Term::var(b),
        obj2: Term::var(x),
        attr2: Term::var(g),
    };
    let antecedent = Formula::and(vec![
        Formula::Atom(rep),
        Formula::eq(
            Term::var(r),
            Term::select(Term::var(s), Term::var(x), Term::var(f)),
        ),
        Formula::neq(Term::var(r), Term::null()),
        Formula::Atom(Atom::IsInt(Term::var(i))),
        Formula::eq(
            Term::var(e),
            Term::select(Term::var(s), Term::var(r), Term::var(i)),
        ),
        Formula::neq(Term::var(e), Term::null()),
    ]);
    let trigger = Trigger(vec![Pattern::Atom(rep), Pattern::Atom(inc)]);
    declare(
        vec![g, f, a, s, x, r, i, e, b],
        PatternPolicy::goal_directed(vec![trigger]),
        Formula::implies(antecedent, Formula::not(Formula::Atom(inc))),
    )
}

/// The (6)-analogue for elem-pivot fields: non-null elem-pivot values
/// (the arrays themselves) are unique. Encoded like [`pivot_uniqueness`]:
///
/// ```text
/// G ⇉F A ∧ S(X·F) ≠ null
///   ⇒ val(S, S(X·F)) ∧ own(S, S(X·F)) = X ∧ fld(S, S(X·F)) = F
/// ```
fn elem_pivot_uniqueness(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (g, f, a, s, x) = (
        fresh.fresh("ubG"),
        fresh.fresh("ubF"),
        fresh.fresh("ubA"),
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
    );
    let rep = Atom::RepIncElem {
        group: Term::var(g),
        pivot: Term::var(f),
        mapped: Term::var(a),
    };
    let pivot_read = Term::select(Term::var(s), Term::var(x), Term::var(f));
    let antecedent = Formula::and(vec![
        Formula::Atom(rep),
        Formula::neq(pivot_read, Term::null()),
    ]);
    let trigger = Trigger(vec![Pattern::Atom(rep), Pattern::Term(pivot_read)]);
    declare(
        vec![g, f, a, s, x],
        PatternPolicy::goal_directed(vec![trigger]),
        Formula::implies(antecedent, distinguished_read(s, x, f)),
    )
}

/// Elem-pivot values (arrays) are `null` or objects — the elem analogue of
/// [`pivot_values_are_objects`]:
///
/// ```text
/// G ⇉F A ⇒ S(X·F) = null ∨ isObj(S(X·F))
/// ```
fn elem_pivot_values_are_objects(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (g, f, a, s, x) = (
        fresh.fresh("ubG"),
        fresh.fresh("ubF"),
        fresh.fresh("ubA"),
        fresh.fresh("ubS"),
        fresh.fresh("ubX"),
    );
    let rep = Atom::RepIncElem {
        group: Term::var(g),
        pivot: Term::var(f),
        mapped: Term::var(a),
    };
    let read = Term::select(Term::var(s), Term::var(x), Term::var(f));
    let body = Formula::implies(
        Formula::Atom(rep),
        Formula::or(vec![
            Formula::eq(read, Term::null()),
            Formula::Atom(Atom::IsObj(read)),
        ]),
    );
    let trigger = Trigger(vec![Pattern::Atom(rep), Pattern::Term(read)]);
    declare(
        vec![g, f, a, s, x],
        PatternPolicy::goal_directed(vec![trigger]),
        body,
    )
}

/// Pivot positions of rep inclusions are declared attribute names, never
/// integer slot keys:
///
/// ```text
/// A →F B ⇒ ¬isInt(F)        A ⇉F B ⇒ ¬isInt(F)
/// ```
///
/// Needed to discharge owner exclusion for element values: an element
/// equal to a "pivot read" at an *integer* key would otherwise evade the
/// per-field enumeration axioms.
fn pivots_are_attributes(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (a, f, b) = (fresh.fresh("ubA"), fresh.fresh("ubF"), fresh.fresh("ubB"));
    let rep = Atom::RepInc {
        group: Term::var(a),
        pivot: Term::var(f),
        mapped: Term::var(b),
    };
    let rep_elem = Atom::RepIncElem {
        group: Term::var(a),
        pivot: Term::var(f),
        mapped: Term::var(b),
    };
    let not_int = Formula::not(Formula::Atom(Atom::IsInt(Term::var(f))));
    // Goal-directed: its triggers are the ground rep facts of the scope,
    // so eager scheduling would stamp a ¬isInt fact per declared triple
    // into every context regardless of need.
    declare(
        vec![a, f, b],
        PatternPolicy::goal_directed(vec![
            Trigger(vec![Pattern::Atom(rep)]),
            Trigger(vec![Pattern::Atom(rep_elem)]),
        ]),
        Formula::and(vec![
            Formula::implies(Formula::Atom(rep), not_int.clone()),
            Formula::implies(Formula::Atom(rep_elem), not_int),
        ]),
    )
}

/// Slot uniqueness (the (6)-analogue of the array-dependencies slot
/// discipline — slots are only ever assigned `new()` or `null`, so their
/// non-null values are unique). Encoded like [`pivot_uniqueness`]:
///
/// ```text
/// isInt(I) ∧ S(X·I) ≠ null
///   ⇒ val(S, S(X·I)) ∧ own(S, S(X·I)) = X ∧ fld(S, S(X·I)) = I
/// ```
fn slot_uniqueness(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, x, i) = (fresh.fresh("ubS"), fresh.fresh("ubX"), fresh.fresh("ubI"));
    let slot_read = Term::select(Term::var(s), Term::var(x), Term::var(i));
    let antecedent = Formula::and(vec![
        Formula::Atom(Atom::IsInt(Term::var(i))),
        Formula::neq(slot_read, Term::null()),
    ]);
    declare(
        vec![s, x, i],
        PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Term(slot_read)])]),
        Formula::implies(antecedent, distinguished_read(s, x, i)),
    )
}

/// Slot values are `null` or objects (slots are only assigned `new()` or
/// `null` under the extended restriction):
///
/// ```text
/// isInt(I) ⇒ S(X·I) = null ∨ isObj(S(X·I))
/// ```
fn slot_values_are_objects(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let (s, x, i) = (fresh.fresh("ubS"), fresh.fresh("ubX"), fresh.fresh("ubI"));
    let read = Term::select(Term::var(s), Term::var(x), Term::var(i));
    let body = Formula::implies(
        Formula::Atom(Atom::IsInt(Term::var(i))),
        Formula::or(vec![
            Formula::eq(read, Term::null()),
            Formula::Atom(Atom::IsObj(read)),
        ]),
    );
    declare(
        vec![s, x, i],
        PatternPolicy::goal_directed(vec![Trigger(vec![Pattern::Term(read)])]),
        body,
    )
}

/// `∀S :: isObj(new(S))` — freshly allocated values are object references.
fn fresh_objects_are_objects(fresh: &mut FreshGen) -> (Formula, PatternPolicy) {
    let s = fresh.fresh("ubS");
    let new = Term::new_obj(Term::var(s));
    declare(
        vec![s],
        PatternPolicy::eager(vec![Trigger(vec![Pattern::Term(new)])]),
        Formula::Atom(Atom::IsObj(new)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_prover::{prove, Budget, Outcome};
    use oolong_sema::Scope;
    use oolong_syntax::parse_program;

    fn stack_scope() -> Scope {
        Scope::analyze(
            &parse_program(
                "group contents
                 group elems
                 field cnt in elems
                 field obj
                 field vec maps elems into contents",
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn all_axioms(scope: &Scope) -> Vec<Formula> {
        axioms(scope, true, false, &mut FreshGen::new())
            .into_iter()
            .map(|a| a.formula)
            .collect()
    }

    #[test]
    fn axiom_counts() {
        // An empty scope contributes no scope-dependent axioms, so these
        // count the universal background (plus, with alias restrictions
        // off, the two closed-world axioms).
        let empty = Scope::analyze(&parse_program("").unwrap()).unwrap();
        let count =
            |restrictions, arrays| axioms(&empty, restrictions, arrays, &mut FreshGen::new()).len();
        // Plain level: the paper's system.
        assert_eq!(count(true, false), 18);
        assert_eq!(count(false, false), 14 + 2);
        // The arrays level adds eight axioms: comparisons-are-ints, which
        // the naive baseline keeps, plus seven alias-restriction axioms
        // (slot and elem-pivot uniqueness, their values-are-objects
        // companions, the two elem acyclicity axioms and
        // pivots-are-attributes).
        assert_eq!(count(true, true), 18 + 8);
        assert_eq!(count(false, true), 15 + 2);
        assert!(all_axioms(&stack_scope()).len() > 18);
    }

    #[test]
    fn store_axioms_prove_read_over_write() {
        let axioms = all_axioms(&stack_scope());
        // select(update(S, t, cnt, 3), t, cnt) = 3
        let upd = Term::update(
            Term::store(),
            Term::var("t"),
            Term::attr("cnt"),
            Term::int(3),
        );
        let goal = Formula::eq(
            Term::select(upd, Term::var("t"), Term::attr("cnt")),
            Term::int(3),
        );
        assert!(prove(&axioms, &goal, &Budget::default()).is_proved());
    }

    #[test]
    fn store_axioms_prove_frame_over_distinct_attr() {
        let axioms = all_axioms(&stack_scope());
        // select(update(S, t, cnt, 3), u, obj) = select(S, u, obj): attrs differ.
        let upd = Term::update(
            Term::store(),
            Term::var("t"),
            Term::attr("cnt"),
            Term::int(3),
        );
        let goal = Formula::eq(
            Term::select(upd, Term::var("u"), Term::attr("obj")),
            Term::select(Term::store(), Term::var("u"), Term::attr("obj")),
        );
        assert!(prove(&axioms, &goal, &Budget::default()).is_proved());
    }

    #[test]
    fn fresh_object_is_unallocated_and_nonnull() {
        let axioms = all_axioms(&stack_scope());
        let goal = Formula::and(vec![
            Formula::not(Formula::Atom(Atom::Alive(
                Term::store(),
                Term::new_obj(Term::store()),
            ))),
            Formula::neq(Term::new_obj(Term::store()), Term::null()),
        ]);
        assert!(prove(&axioms, &goal, &Budget::default()).is_proved());
    }

    #[test]
    fn reflexive_inclusion_of_declared_group() {
        let axioms = all_axioms(&stack_scope());
        // $ ⊨ t·contents ≽ t·contents via (4) left disjunct + ground ⊒.
        let goal = Formula::Atom(Atom::Inc {
            store: Term::store(),
            obj: Term::var("t"),
            attr: Term::attr("contents"),
            obj2: Term::var("t"),
            attr2: Term::attr("contents"),
        });
        assert!(prove(&axioms, &goal, &Budget::default()).is_proved());
    }

    #[test]
    fn local_inclusion_of_field_in_group() {
        let axioms = all_axioms(&stack_scope());
        // $ ⊨ t·elems ≽ t·cnt since cnt in elems.
        let goal = Formula::Atom(Atom::Inc {
            store: Term::store(),
            obj: Term::var("t"),
            attr: Term::attr("elems"),
            obj2: Term::var("t"),
            attr2: Term::attr("cnt"),
        });
        assert!(prove(&axioms, &goal, &Budget::default()).is_proved());
    }

    #[test]
    fn rep_inclusion_through_pivot() {
        let axioms = all_axioms(&stack_scope());
        // $ ⊨ st·contents ≽ $(st·vec)·cnt — the paper's running example.
        let vec_val = Term::select(Term::store(), Term::var("st"), Term::attr("vec"));
        let mut hyps = axioms;
        // The chain disjunct of (4) needs X ≠ Y and Y ≠ null; pivot values
        // are distinct from their owners in restricted programs, and here
        // the pivot is assumed set.
        hyps.push(Formula::neq(Term::var("st"), vec_val));
        hyps.push(Formula::neq(vec_val, Term::null()));
        let goal = Formula::Atom(Atom::Inc {
            store: Term::store(),
            obj: Term::var("st"),
            attr: Term::attr("contents"),
            obj2: vec_val,
            attr2: Term::attr("cnt"),
        });
        assert!(prove(&hyps, &goal, &Budget::default()).is_proved());
    }

    #[test]
    fn no_inclusion_between_unrelated_attrs() {
        let axioms = all_axioms(&stack_scope());
        // ¬($ ⊨ t·obj ≽ t·cnt): obj is not a group enclosing cnt.
        let goal = Formula::not(Formula::Atom(Atom::Inc {
            store: Term::store(),
            obj: Term::var("t"),
            attr: Term::attr("obj"),
            obj2: Term::var("t"),
            attr2: Term::attr("cnt"),
        }));
        assert!(prove(&axioms, &goal, &Budget::default()).is_proved());
    }

    #[test]
    fn pivot_uniqueness_derives_disequality() {
        // Axiom (6): with vec a pivot and t.vec ≠ null, a non-pivot read
        // result.obj cannot alias t.vec (since obj ≠ vec).
        let axioms = all_axioms(&stack_scope());
        let vec_read = Term::select(Term::store(), Term::var("t"), Term::attr("vec"));
        let obj_read = Term::select(Term::store(), Term::var("r"), Term::attr("obj"));
        let mut hyps = axioms;
        hyps.push(Formula::neq(vec_read, Term::null()));
        let goal = Formula::neq(vec_read, obj_read);
        assert!(prove(&hyps, &goal, &Budget::default()).is_proved());
    }

    /// The arrays-level background of a scope with a pivot (`vec`), an
    /// elem pivot (`arr`) and two plain fields (`cnt`, `obj`).
    fn array_axioms() -> Vec<Formula> {
        let scope = Scope::analyze(
            &parse_program(
                "group contents
                 group elems
                 field cnt in elems
                 field obj
                 field vec maps elems into contents
                 field arr in contents maps elem elems into contents",
            )
            .unwrap(),
        )
        .unwrap();
        axioms(&scope, true, true, &mut FreshGen::new())
            .into_iter()
            .map(|a| a.formula)
            .collect()
    }

    /// The outcome of proving `x = y`, conjoined with `f = b` when
    /// `with_attr`, from `$(x·f) ≠ null ∧ $(x·f) = $(y·b)` plus `extra`.
    fn read_owner(f: Term, b: Term, extra: Vec<Formula>, with_attr: bool) -> Outcome {
        let (x, y) = (Term::var("x"), Term::var("y"));
        let read = Term::select(Term::store(), x, f);
        let mut hyps = array_axioms();
        hyps.push(Formula::neq(read, Term::null()));
        hyps.push(Formula::eq(read, Term::select(Term::store(), y, b)));
        hyps.extend(extra);
        let mut goal = vec![Formula::eq(x, y)];
        if with_attr {
            goal.push(Formula::eq(f, b));
        }
        prove(&hyps, &Formula::and(goal), &Budget::default()).outcome
    }

    #[test]
    fn uniqueness_encoding_derives_the_paired_axioms() {
        // The inverse-function encoding proves what the paired form of
        // (6) and its array analogues states: a non-null value held by a
        // distinguished location is held by no other location.
        let is_int = |t: Term| Formula::Atom(Atom::IsInt(t));
        let (b, i) = (Term::var("b"), Term::var("i"));
        let cases = [
            ("pivot", Term::attr("vec"), b, vec![]),
            ("elem pivot", Term::attr("arr"), b, vec![]),
            ("int slot", i, b, vec![is_int(i)]),
            (
                "slot value = pivot value",
                i,
                Term::attr("vec"),
                vec![is_int(i)],
            ),
        ];
        for (name, f, b, extra) in cases {
            assert_eq!(read_owner(f, b, extra, true), Outcome::Proved, "{name}");
        }
    }

    #[test]
    fn uniqueness_encoding_leaves_plain_reads_unconstrained() {
        // Neither equal plain-field values nor reads at a non-int
        // attribute are distinguished: the search saturates without
        // deriving `x = y`.
        let not_int = |t: Term| Formula::not(Formula::Atom(Atom::IsInt(t)));
        let (a, b) = (Term::var("a"), Term::var("b"));
        let cases = [
            ("plain fields", Term::attr("obj"), Term::attr("cnt"), vec![]),
            ("non-int attribute", a, b, vec![not_int(a)]),
        ];
        for (name, f, b, extra) in cases {
            assert_eq!(read_owner(f, b, extra, false), Outcome::NotProved, "{name}");
        }
    }
}
