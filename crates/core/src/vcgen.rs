//! Verification-condition generation: `wlp` (Figures 2 and 3) and the
//! per-implementation VC of formula (1):
//!
//! ```text
//! UBP ∧ BP_D ∧ Init(m) ⇒ wlp_{w,$0}(C, true)
//! ```
//!
//! One reading note: Figure 2 writes the allocation rule as
//! `Q[x := new($)][$ := $⁺]`. Read literally as sequential substitution
//! this would rewrite the just-introduced `new($)` into `new($⁺)` —
//! allocating one object and assigning a different one. We read the
//! substitution pairs as *parallel* (`Q[x := new($), $ := $⁺]`), which
//! matches the operational semantics: `x` receives `new(S_pre)` and the
//! store advances to `S_pre⁺`. The field-allocation rule is treated
//! correspondingly: the final store is `$⁺(tr(E)·f := new($))`.

use crate::background::Background;
use crate::checker::Checker;
use crate::effects::{ModEntry, ModList};
use crate::translate::{tr_formula, tr_value};
use oolong_logic::transform::FreshGen;
use oolong_logic::{Atom, Formula, Pattern, Symbol, Term, Trigger};
use oolong_sema::{ImplId, Scope};
use oolong_syntax::{Cmd, Diagnostic, Expr, Span};
use std::fmt;
use std::sync::Arc;

/// The kind of proof obligation a position label marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObligationKind {
    /// A `mod(X·A, w, $0)` license for a field/slot write, or a caller's
    /// license covering a callee's modifies entry.
    ModifiesViolation,
    /// An `ownExcl` clause for an argument at a call site.
    OwnerExclusion,
    /// An `assert E` command's condition.
    Assert,
    /// The syntactic pivot-uniqueness restriction (checked outside the
    /// prover; never appears on a VC label, but shares the vocabulary).
    PivotUniqueness,
    /// A declared object invariant may not hold at a procedure exit or a
    /// call boundary.
    InvariantPreserved,
    /// A heap read not licensed by the procedure's declared `reads` frame,
    /// or a caller's read frame failing to cover a callee's reads entry.
    ReadsViolation,
}

impl ObligationKind {
    /// Every kind, in a fixed order (used for stable per-kind tallies).
    pub const ALL: [ObligationKind; 6] = [
        ObligationKind::ModifiesViolation,
        ObligationKind::OwnerExclusion,
        ObligationKind::Assert,
        ObligationKind::PivotUniqueness,
        ObligationKind::InvariantPreserved,
        ObligationKind::ReadsViolation,
    ];

    /// Stable machine-readable name (used in JSON output and caches).
    pub fn as_str(self) -> &'static str {
        match self {
            ObligationKind::ModifiesViolation => "modifies-violation",
            ObligationKind::OwnerExclusion => "owner-exclusion",
            ObligationKind::Assert => "assert",
            ObligationKind::PivotUniqueness => "pivot-uniqueness",
            ObligationKind::InvariantPreserved => "invariant-preserved",
            ObligationKind::ReadsViolation => "reads-violation",
        }
    }

    /// Inverse of [`ObligationKind::as_str`].
    pub fn parse(s: &str) -> Option<ObligationKind> {
        match s {
            "modifies-violation" => Some(ObligationKind::ModifiesViolation),
            "owner-exclusion" => Some(ObligationKind::OwnerExclusion),
            "assert" => Some(ObligationKind::Assert),
            "pivot-uniqueness" => Some(ObligationKind::PivotUniqueness),
            "invariant-preserved" => Some(ObligationKind::InvariantPreserved),
            "reads-violation" => Some(ObligationKind::ReadsViolation),
            _ => None,
        }
    }
}

impl fmt::Display for ObligationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One position label (`lblpos`-style): the source command and obligation
/// kind a labelled VC conjunct stands for. The prover treats the label as
/// logically transparent but reports which labels land on a refuting
/// branch, letting diagnostics point back at the offending command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObligationLabel {
    /// The label id embedded in the formula ([`Formula::Labeled`]).
    pub id: u32,
    /// What kind of obligation the conjunct is.
    pub kind: ObligationKind,
    /// Source span of the offending command.
    pub span: Span,
    /// Human-readable description of the obligation.
    pub detail: String,
}

/// A generated verification condition.
#[derive(Debug, Clone)]
pub struct Vc {
    /// Which implementation this VC belongs to (provenance for caching
    /// and event logs).
    pub impl_id: ImplId,
    /// Name of the implemented procedure.
    pub proc_name: String,
    /// `UBP ∧ BP_D ∧ Init(m)`, as separate hypotheses: the checker's
    /// shared background, then this implementation's own `Init(m)` facts.
    pub hypotheses: Hypotheses,
    /// How many leading entries of `hypotheses` are scope-level background
    /// axioms (`UBP ∧ BP_D`, plus the closed-world axioms in naive mode);
    /// the rest are the per-implementation `Init(m)` facts.
    pub background_hyps: usize,
    /// `wlp_{w,$0}(C, true)`.
    pub goal: Formula,
    /// The position labels embedded in `goal`, indexed by label id.
    pub labels: Vec<ObligationLabel>,
}

impl Vc {
    /// Looks up a label by its id.
    pub fn label(&self, id: u32) -> Option<&ObligationLabel> {
        self.labels.iter().find(|l| l.id == id)
    }

    /// Tally of labeled obligation conjuncts per kind, in the fixed
    /// [`ObligationKind::ALL`] order, zero-count kinds omitted.
    pub fn kind_counts(&self) -> Vec<(ObligationKind, u32)> {
        ObligationKind::ALL
            .iter()
            .filter_map(|&kind| {
                let n = self.labels.iter().filter(|l| l.kind == kind).count() as u32;
                (n > 0).then_some((kind, n))
            })
            .collect()
    }
}

impl Vc {
    /// Total formula size (hypotheses plus goal), for statistics. Labels
    /// are transparent to [`Formula::size`], so this matches the
    /// unlabelled VC.
    pub fn size(&self) -> usize {
        self.hypotheses.iter().map(Formula::size).sum::<usize>() + self.goal.size()
    }
}

/// The hypotheses of a [`Vc`]: the checker's shared scope background
/// followed by the implementation's own `Init(m)` facts. Only the latter
/// belong to the VC; the background is one [`Arc`] for every VC of a
/// checker.
#[derive(Debug, Clone)]
pub struct Hypotheses {
    background: Arc<Background>,
    init: Vec<Formula>,
}

impl Hypotheses {
    /// `background`'s formulas followed by `init`.
    pub fn new(background: Arc<Background>, init: Vec<Formula>) -> Hypotheses {
        Hypotheses { background, init }
    }

    /// The total number of hypotheses, background included.
    pub fn len(&self) -> usize {
        self.background.len() + self.init.len()
    }

    /// Whether there are no hypotheses at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared scope background.
    pub fn background(&self) -> &Arc<Background> {
        &self.background
    }

    /// The implementation's own `Init(m)` facts.
    pub fn init(&self) -> &[Formula] {
        &self.init
    }

    /// Every hypothesis, background first.
    pub fn iter(&self) -> impl Iterator<Item = &Formula> + '_ {
        self.background.formulas().chain(&self.init)
    }

    /// Every hypothesis, background first, as owned formulas.
    pub fn to_vec(&self) -> Vec<Formula> {
        self.iter().cloned().collect()
    }
}

/// Verification-condition generator for one checker's scope.
#[derive(Debug)]
pub struct VcGen<'s> {
    scope: &'s Scope,
    checker: &'s Checker,
    fresh: FreshGen,
    /// Position labels allocated while generating the current VC's goal;
    /// drained into [`Vc::labels`] by [`VcGen::vc_for_impl`].
    labels: Vec<ObligationLabel>,
    /// The current implementation's declared read frame, when its
    /// procedure carries a `reads` clause: every heap `select` the body
    /// performs is licensed against it. `None` leaves reads unconstrained
    /// (a declaration without the clause, or `wlp` used standalone).
    reads: Option<ModList>,
}

impl<'s> VcGen<'s> {
    /// Creates a generator for `checker`: its VCs assert the checker's
    /// prebuilt scope background and draw fresh names from where building
    /// that background left off.
    pub fn new(checker: &'s Checker) -> Self {
        VcGen {
            scope: checker.scope(),
            checker,
            fresh: checker.fresh.clone(),
            labels: Vec::new(),
            reads: None,
        }
    }

    /// Wraps an obligation conjunct in a fresh position label and records
    /// the label's source metadata. Constant formulas pass through
    /// unlabelled (there is nothing to report about them).
    fn label(
        &mut self,
        kind: ObligationKind,
        span: Span,
        detail: impl Into<String>,
        f: Formula,
    ) -> Formula {
        // A statically-false obligation (e.g. `assert false`) still needs
        // a label to be blamed; represent it as an inert contradiction
        // *literal* — a bare `False` would dissolve during NNF conversion
        // before the prover could stamp the branch.
        let f = if matches!(f, Formula::False) {
            Formula::eq(Term::int(0), Term::int(1))
        } else {
            f
        };
        match Formula::labeled(self.labels.len() as u32, f) {
            Formula::Labeled(id, body) => {
                self.labels.push(ObligationLabel {
                    id,
                    kind,
                    span,
                    detail: detail.into(),
                });
                Formula::Labeled(id, body)
            }
            other => other,
        }
    }

    /// One declared invariant as a closed formula over `store`:
    ///
    /// ```text
    /// ∀o :: alive(store, o) ∧ o ≠ null ⇒ tr(E)[this := o]
    /// ```
    ///
    /// In hypothesis position the quantifier triggers on the aliveness
    /// atom; in goal position it is skolemized away, so no trigger is
    /// declared. Well-definedness side conditions of the body are elided,
    /// matching the paper's treatment of dereferences.
    fn invariant_clause(
        &mut self,
        expr: &Expr,
        store: &Term,
        hypothesis: bool,
    ) -> Result<Formula, Diagnostic> {
        let tr = tr_formula(expr, store)?;
        let o = self.fresh.fresh("invO");
        let body = tr.formula.subst(&[("this".into(), Term::var(o))]);
        let alive = Atom::Alive(*store, Term::var(o));
        let triggers = if hypothesis {
            vec![Trigger(vec![Pattern::Atom(alive)])]
        } else {
            Vec::new()
        };
        Ok(Formula::forall(
            vec![o],
            triggers,
            Formula::implies(
                Formula::and(vec![
                    Formula::Atom(alive),
                    Formula::neq(Term::var(o), Term::null()),
                ]),
                body,
            ),
        ))
    }

    /// Read-frame licenses for every heap `select` the expressions
    /// perform, against the current implementation's declared `reads`
    /// frame. Empty when the procedure declares no frame.
    fn read_licenses(&mut self, exprs: &[&Expr]) -> Vec<Formula> {
        let Some(reads) = self.reads.clone() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for expr in exprs {
            for read in crate::translate::heap_reads(expr, &Term::store()) {
                out.push(self.label(
                    ObligationKind::ReadsViolation,
                    read.span,
                    format!("read of `{}` not covered by reads clause", read.desc),
                    reads.modifiable(&read.obj, &read.attr, &Term::store0()),
                ));
            }
        }
        out
    }

    /// Generates the verification condition for one implementation.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] if the body uses an expression form the
    /// translation does not support (a boolean operator in value
    /// position).
    pub fn vc_for_impl(&mut self, impl_id: ImplId) -> Result<Vc, Diagnostic> {
        let info = self.scope.impl_info(impl_id);
        let proc = self.scope.proc_info(info.proc);
        let params: Vec<Term> = proc.params.iter().map(Term::var).collect();
        let w = ModList::new(self.scope, &proc.modifies, &params);
        self.reads = proc
            .reads
            .as_ref()
            .map(|r| ModList::new(self.scope, r, &params));

        // The scope-level background (universal, scope-dependent, and — for
        // the naive baseline — the unsound closed-world additions) is the
        // checker's, shared; the VC owns only what follows it.
        let background = Arc::clone(self.checker.shared_background());
        let background_hyps = background.len();
        let mut hypotheses: Vec<Formula> = Vec::new();
        // Init(m): $ = $0, plus ownExcl and alive for each formal (5).
        hypotheses.push(Formula::eq(Term::store(), Term::store0()));
        // Fieldwise reflexivity, pre-derived: every modifies entry's own
        // location includes itself (axiom (4) local case + reflexive ⊒).
        // Saves one matching generation on every license obligation.
        for entry in w.entries() {
            let (obj, attr) = entry.location(&Term::store0());
            hypotheses.push(Formula::Atom(Atom::Inc {
                store: Term::store0(),
                obj,
                attr,
                obj2: obj,
                attr2: attr,
            }));
        }
        for p in &params {
            if !self.checker.options().naive {
                hypotheses.push(w.own_excl_leveled(
                    p,
                    &Term::store0(),
                    self.checker.arrays,
                    &mut self.fresh,
                ));
            }
            hypotheses.push(Formula::Atom(Atom::Alive(Term::store0(), *p)));
        }
        // Declared object invariants hold on entry: assumed at $0 for every
        // alive object, triggered by the aliveness atom.
        let scope = self.scope;
        for inv in scope.invariants() {
            let clause = self.invariant_clause(&inv.expr, &Term::store0(), true)?;
            hypotheses.push(clause);
        }

        let body = info.body.desugared();
        self.labels.clear();
        // Exit obligation: every invariant holds again in the final store.
        let mut post = Vec::new();
        for inv in scope.invariants() {
            let clause = self.invariant_clause(&inv.expr, &Term::store(), false)?;
            post.push(self.label(
                ObligationKind::InvariantPreserved,
                inv.span,
                "object invariant may not be preserved at procedure exit",
                clause,
            ));
        }
        let goal = self.wlp(&body, Formula::and(post), &w)?;
        Ok(Vc {
            impl_id,
            proc_name: proc.name.clone(),
            hypotheses: Hypotheses::new(background, hypotheses),
            background_hyps,
            goal,
            labels: std::mem::take(&mut self.labels),
        })
    }

    /// The weakest liberal precondition `wlp_{w,$0}(cmd, q)` (Figure 2).
    pub fn wlp(&mut self, cmd: &Cmd, q: Formula, w: &ModList) -> Result<Formula, Diagnostic> {
        match cmd {
            Cmd::Assert(e, span) => {
                let tr = tr_formula(e, &Term::store())?;
                let reads = self.read_licenses(&[e]);
                let condition = self.label(
                    ObligationKind::Assert,
                    *span,
                    "assert condition may not hold",
                    tr.formula,
                );
                Ok(Formula::and(
                    reads
                        .into_iter()
                        .chain(self.defined(tr.defined))
                        .chain([condition, q])
                        .collect(),
                ))
            }
            Cmd::Assume(e, _) => {
                let tr = tr_formula(e, &Term::store())?;
                let reads = self.read_licenses(&[e]);
                Ok(Formula::and(
                    reads
                        .into_iter()
                        .chain(self.defined(tr.defined))
                        .chain([Formula::implies(tr.formula, q)])
                        .collect(),
                ))
            }
            Cmd::Var(x, body, _) => {
                let inner = self.wlp(body, q, w)?;
                Ok(Formula::forall(vec![x.text.as_str().into()], vec![], inner))
            }
            Cmd::Seq(c0, c1) => {
                let q1 = self.wlp(c1, q, w)?;
                self.wlp(c0, q1, w)
            }
            Cmd::Choice(c0, c1) => {
                let w0 = self.wlp(c0, q.clone(), w)?;
                let w1 = self.wlp(c1, q, w)?;
                Ok(Formula::and(vec![w0, w1]))
            }
            Cmd::Assign { lhs, rhs, span } => self.wlp_assign(lhs, rhs, q, w, *span),
            Cmd::AssignNew { lhs, span } => self.wlp_assign_new(lhs, q, w, *span),
            Cmd::Call { proc, args, span } => self.wlp_call(proc, args, q, w, *span),
            Cmd::Skip(_) | Cmd::If { .. } => {
                unreachable!("wlp is applied to desugared commands only")
            }
        }
    }

    fn defined(&self, conditions: Vec<Formula>) -> impl Iterator<Item = Formula> {
        let keep = self.checker.options().null_checks;
        conditions.into_iter().filter(move |_| keep)
    }

    fn wlp_assign(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        q: Formula,
        w: &ModList,
        span: Span,
    ) -> Result<Formula, Diagnostic> {
        let r = tr_value(rhs, &Term::store())?;
        match lhs {
            // x := E  —  Q[x := tr(E)].
            Expr::Id(x) => {
                let reads = self.read_licenses(&[rhs]);
                let subst = q.subst(&[(x.text.as_str().into(), r.term)]);
                Ok(Formula::and(
                    reads
                        .into_iter()
                        .chain(self.defined(r.defined))
                        .chain([subst])
                        .collect(),
                ))
            }
            // E0.f := E1 — mod(tr(E0)·f, w, $0) ∧ Q[$ := $(tr(E0)·f := tr(E1))].
            Expr::Select { base, attr, .. } => {
                let b = tr_value(base, &Term::store())?;
                let attr_term = Term::attr(attr.text.clone());
                let reads = self.read_licenses(&[base, rhs]);
                let license = self.label(
                    ObligationKind::ModifiesViolation,
                    span,
                    format!(
                        "write to field `{}` not covered by modifies list",
                        attr.text
                    ),
                    w.modifiable(&b.term, &attr_term, &Term::store0()),
                );
                let updated = Term::update(Term::store(), b.term, attr_term, r.term);
                let subst = q.subst(&[(oolong_logic::STORE.into(), updated)]);
                let defined: Vec<Formula> = b.defined.into_iter().chain(r.defined).collect();
                let mut defined_with_target = defined;
                defined_with_target.push(Formula::neq(b.term, Term::null()));
                Ok(Formula::and(
                    reads
                        .into_iter()
                        .chain(self.defined(defined_with_target))
                        .chain([license, subst])
                        .collect(),
                ))
            }
            // E0[I] := E1 — the slot analogue: mod(tr(E0)·tr(I), w, $0).
            Expr::Index { base, index, .. } => {
                let b = tr_value(base, &Term::store())?;
                let idx = tr_value(index, &Term::store())?;
                let reads = self.read_licenses(&[base, index, rhs]);
                let license = self.label(
                    ObligationKind::ModifiesViolation,
                    span,
                    "slot write not covered by modifies list",
                    w.modifiable(&b.term, &idx.term, &Term::store0()),
                );
                let updated = Term::update(Term::store(), b.term, idx.term, r.term);
                let subst = q.subst(&[(oolong_logic::STORE.into(), updated)]);
                let mut defined: Vec<Formula> = b
                    .defined
                    .into_iter()
                    .chain(idx.defined)
                    .chain(r.defined)
                    .collect();
                defined.push(Formula::neq(b.term, Term::null()));
                Ok(Formula::and(
                    reads
                        .into_iter()
                        .chain(self.defined(defined))
                        .chain([license, subst])
                        .collect(),
                ))
            }
            other => Err(Diagnostic::error(
                "assignment target must be a variable or designator",
                other.span(),
            ))
            .map_err(|d: Diagnostic| d.with_note("while generating wlp", span)),
        }
    }

    fn wlp_assign_new(
        &mut self,
        lhs: &Expr,
        q: Formula,
        w: &ModList,
        span: Span,
    ) -> Result<Formula, Diagnostic> {
        match lhs {
            // x := new()  —  Q[x := new($), $ := $⁺] (parallel).
            Expr::Id(x) => Ok(q.subst(&[
                (x.text.as_str().into(), Term::new_obj(Term::store())),
                (oolong_logic::STORE.into(), Term::succ(Term::store())),
            ])),
            // E.f := new() — mod(tr(E)·f, w, $0) ∧ Q[$ := $⁺(tr(E)·f := new($))].
            Expr::Select { base, attr, .. } => {
                let b = tr_value(base, &Term::store())?;
                let attr_term = Term::attr(attr.text.clone());
                let reads = self.read_licenses(&[base]);
                let license = self.label(
                    ObligationKind::ModifiesViolation,
                    span,
                    format!(
                        "allocation into field `{}` not covered by modifies list",
                        attr.text
                    ),
                    w.modifiable(&b.term, &attr_term, &Term::store0()),
                );
                let updated = Term::update(
                    Term::succ(Term::store()),
                    b.term,
                    attr_term,
                    Term::new_obj(Term::store()),
                );
                let subst = q.subst(&[(oolong_logic::STORE.into(), updated)]);
                let mut defined = b.defined;
                defined.push(Formula::neq(b.term, Term::null()));
                Ok(Formula::and(
                    reads
                        .into_iter()
                        .chain(self.defined(defined))
                        .chain([license, subst])
                        .collect(),
                ))
            }
            // E[I] := new() — the slot analogue.
            Expr::Index { base, index, .. } => {
                let b = tr_value(base, &Term::store())?;
                let idx = tr_value(index, &Term::store())?;
                let reads = self.read_licenses(&[base, index]);
                let license = self.label(
                    ObligationKind::ModifiesViolation,
                    span,
                    "allocation into slot not covered by modifies list",
                    w.modifiable(&b.term, &idx.term, &Term::store0()),
                );
                let updated = Term::update(
                    Term::succ(Term::store()),
                    b.term,
                    idx.term,
                    Term::new_obj(Term::store()),
                );
                let subst = q.subst(&[(oolong_logic::STORE.into(), updated)]);
                let mut defined: Vec<Formula> = b.defined.into_iter().chain(idx.defined).collect();
                defined.push(Formula::neq(b.term, Term::null()));
                Ok(Formula::and(
                    reads
                        .into_iter()
                        .chain(self.defined(defined))
                        .chain([license, subst])
                        .collect(),
                ))
            }
            other => Err(Diagnostic::error(
                "allocation target must be a variable or designator",
                other.span(),
            ))
            .map_err(|d: Diagnostic| d.with_note("while generating wlp", span)),
        }
    }

    /// The method-call rule (Figure 3).
    fn wlp_call(
        &mut self,
        proc: &oolong_syntax::Ident,
        args: &[Expr],
        q: Formula,
        w: &ModList,
        span: Span,
    ) -> Result<Formula, Diagnostic> {
        let Some(callee_id) = self.scope.proc(&proc.text) else {
            return Err(Diagnostic::error(
                format!("call to undeclared procedure `{}`", proc.text),
                span,
            ));
        };
        let callee = self.scope.proc_info(callee_id).clone();
        // Caller's read frame licenses the evaluation of the actuals.
        let arg_reads = self.read_licenses(&args.iter().collect::<Vec<_>>());

        // Fresh sᵢ bound to the actuals.
        let si: Vec<Symbol> = callee
            .params
            .iter()
            .map(|p| self.fresh.fresh(&format!("s_{p}")))
            .collect();
        let si_terms: Vec<Term> = si.iter().copied().map(Term::var).collect();
        let mut equalities = Vec::new();
        let mut defined = Vec::new();
        for (s, arg) in si_terms.iter().zip(args.iter()) {
            let a = tr_value(arg, &Term::store())?;
            defined.extend(a.defined);
            equalities.push(Formula::eq(*s, a.term));
        }
        // ws: the callee's modifies list with formals replaced by sᵢ.
        let ws = ModList::new(self.scope, &callee.modifies, &si_terms);

        // Caller's license covers every callee target (evaluated in the
        // current store, against w evaluated in $0).
        let mut obligations = Vec::new();
        for (target, entry) in callee.modifies.iter().zip(ws.entries()) {
            let (obj, attr) = entry.location(&Term::store());
            let license = self.label(
                ObligationKind::ModifiesViolation,
                span,
                format!(
                    "call to `{}` requires license for its modifies entry `{}`",
                    proc.text,
                    entry_desc(&callee.params, target, entry),
                ),
                w.modifiable(&obj, &attr, &Term::store0()),
            );
            obligations.push(license);
        }
        // Caller's read frame covers every *declared* callee reads entry.
        // A callee without a `reads` clause is unconstrained and imposes
        // nothing here (see DESIGN.md: declaring a frame on the caller
        // only pays off once its callees declare theirs).
        if let (Some(reads), Some(callee_reads)) = (self.reads.clone(), callee.reads.as_ref()) {
            let rs = ModList::new(self.scope, callee_reads, &si_terms);
            for (target, entry) in callee_reads.iter().zip(rs.entries()) {
                let (obj, attr) = entry.location(&Term::store());
                let license = self.label(
                    ObligationKind::ReadsViolation,
                    span,
                    format!(
                        "call to `{}` requires read license for its reads entry `{}`",
                        proc.text,
                        entry_desc(&callee.params, target, entry),
                    ),
                    reads.modifiable(&obj, &attr, &Term::store0()),
                );
                obligations.push(license);
            }
        }
        // Every declared invariant holds when control transfers to the
        // callee (the callee assumes it on entry, as this VC did at $0).
        let scope = self.scope;
        for inv in scope.invariants() {
            let clause = self.invariant_clause(&inv.expr, &Term::store(), false)?;
            obligations.push(self.label(
                ObligationKind::InvariantPreserved,
                span,
                format!(
                    "call to `{}` may observe a broken object invariant",
                    proc.text
                ),
                clause,
            ));
        }
        // Owner exclusion for every parameter value.
        if !self.checker.options().naive {
            for (i, s) in si_terms.iter().enumerate() {
                let own_excl =
                    ws.own_excl_leveled(s, &Term::store(), self.checker.arrays, &mut self.fresh);
                obligations.push(self.label(
                    ObligationKind::OwnerExclusion,
                    span,
                    format!(
                        "argument `{}` of call to `{}` may be an owned pivot value",
                        callee.params.get(i).map(String::as_str).unwrap_or("?"),
                        proc.text,
                    ),
                    own_excl,
                ));
            }
        }

        // Frame: ∀$' :: alive-monotone ∧ per-location change license ⇒ Q[$ := $'].
        let post_store = self.fresh.fresh("post");
        let post = Term::var(post_store);
        let frame = {
            let xv = self.fresh.fresh("frX");
            let alive_pre = Atom::Alive(Term::store(), Term::var(xv));
            let alive_post = Atom::Alive(post, Term::var(xv));
            let alive_mono = Formula::forall(
                vec![xv],
                vec![
                    Trigger(vec![Pattern::Atom(alive_pre)]),
                    Trigger(vec![Pattern::Atom(alive_post)]),
                ],
                Formula::implies(Formula::Atom(alive_pre), Formula::Atom(alive_post)),
            );
            let xv2 = self.fresh.fresh("frX");
            let fv = self.fresh.fresh("frF");
            let pre_read = Term::select(Term::store(), Term::var(xv2), Term::var(fv));
            let post_read = Term::select(post, Term::var(xv2), Term::var(fv));
            let change_licensed = Formula::forall(
                vec![xv2, fv],
                vec![
                    Trigger(vec![Pattern::Term(pre_read)]),
                    Trigger(vec![Pattern::Term(post_read)]),
                ],
                Formula::or(vec![
                    Formula::eq(pre_read, post_read),
                    ws.modifiable(&Term::var(xv2), &Term::var(fv), &Term::store()),
                ]),
            );
            let q_post = q.subst(&[(oolong_logic::STORE.into(), post)]);
            // The callee preserved every declared invariant: assume them
            // in the post store (mirroring the exit obligation its own VC
            // carries).
            let mut antecedent = vec![alive_mono, change_licensed];
            for inv in scope.invariants() {
                antecedent.push(self.invariant_clause(&inv.expr, &post, true)?);
            }
            Formula::forall(
                vec![post_store],
                vec![],
                Formula::implies(Formula::and(antecedent), q_post),
            )
        };

        let body = Formula::implies(
            Formula::and(equalities),
            Formula::and(obligations.into_iter().chain([frame]).collect()),
        );
        Ok(Formula::and(
            arg_reads
                .into_iter()
                .chain(self.defined(defined))
                .chain([Formula::forall(si, vec![], body)])
                .collect(),
        ))
    }
}

/// Renders a callee's modifies entry as written (`param.path`), for label
/// details at call sites.
fn entry_desc(params: &[String], target: &oolong_sema::ModTarget, entry: &ModEntry) -> String {
    let root = params.get(target.param).map(String::as_str).unwrap_or("?");
    format!("{root}.{}", entry.path.join("."))
}

/// Whether the scope opts into the arrays language level: it declares an
/// elementwise rep inclusion or some implementation uses index syntax.
pub(crate) fn scope_uses_arrays(scope: &Scope) -> bool {
    if !scope.rep_elem_triples().is_empty() {
        return true;
    }
    scope.impls().any(|(_, info)| {
        let mut found = false;
        info.body.walk(&mut |c| {
            let mut check = |e: &oolong_syntax::Expr| {
                e.walk(&mut |sub| {
                    if matches!(sub, oolong_syntax::Expr::Index { .. }) {
                        found = true;
                    }
                })
            };
            match c {
                Cmd::Assert(e, _) | Cmd::Assume(e, _) => check(e),
                Cmd::Assign { lhs, rhs, .. } => {
                    check(lhs);
                    check(rhs);
                }
                Cmd::AssignNew { lhs, .. } => check(lhs),
                Cmd::Call { args, .. } => args.iter().for_each(&mut check),
                Cmd::If { cond, .. } => check(cond),
                _ => {}
            }
        });
        found
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CheckOptions;
    use oolong_prover::{prove, Budget, Outcome};
    use oolong_syntax::parse_program;

    fn check_src(src: &str, proc_name: &str) -> Outcome {
        check_src_with(src, proc_name, CheckOptions::default())
    }

    fn check_src_with(src: &str, proc_name: &str, options: CheckOptions) -> Outcome {
        let checker =
            Checker::new(&parse_program(src).expect("parses"), options).expect("analyses");
        let scope = checker.scope();
        let (impl_id, _) = scope
            .impls()
            .find(|(_, i)| scope.proc_info(i.proc).name == proc_name)
            .expect("impl exists");
        let vc = checker.vc(impl_id).expect("vc generates");
        prove(&vc.hypotheses.to_vec(), &vc.goal, &Budget::default()).outcome
    }

    fn first_vc(src: &str) -> Vc {
        let checker = Checker::new(&parse_program(src).unwrap(), CheckOptions::default()).unwrap();
        let (impl_id, _) = checker.scope().impls().next().unwrap();
        checker.vc(impl_id).unwrap()
    }

    #[test]
    fn trivial_impl_verifies() {
        assert_eq!(
            check_src("proc p(t) impl p(t) { skip }", "p"),
            Outcome::Proved
        );
    }

    #[test]
    fn assert_true_verifies_and_assert_false_fails() {
        assert_eq!(
            check_src("proc p(t) impl p(t) { assert true }", "p"),
            Outcome::Proved
        );
        assert_eq!(
            check_src("proc p(t) impl p(t) { assert false }", "p"),
            Outcome::NotProved
        );
    }

    #[test]
    fn assume_false_blocks_everything() {
        assert_eq!(
            check_src("proc p(t) impl p(t) { assume false ; assert false }", "p"),
            Outcome::Proved
        );
    }

    #[test]
    fn local_assignment_tracks_values() {
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) { var x in x := 3 ; assert x = 3 end }",
                "p"
            ),
            Outcome::Proved
        );
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) { var x in x := 3 ; assert x = 4 end }",
                "p"
            ),
            Outcome::NotProved
        );
    }

    #[test]
    fn field_update_requires_license() {
        // p has no modifies list: writing t.f is rejected.
        assert_eq!(
            check_src("field f proc p(t) impl p(t) { t.f := 3 }", "p"),
            Outcome::NotProved
        );
        // With the license, it verifies.
        assert_eq!(
            check_src("field f proc p(t) modifies t.f impl p(t) { t.f := 3 }", "p"),
            Outcome::Proved
        );
    }

    #[test]
    fn group_license_covers_member_field() {
        assert_eq!(
            check_src(
                "group g field f in g proc p(t) modifies t.g impl p(t) { t.f := 3 }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn license_does_not_leak_to_other_objects() {
        // modifies t.f gives no license on u.f (u a different parameter).
        assert_eq!(
            check_src(
                "field f proc p(t, u) modifies t.f impl p(t, u) { u.f := 3 }",
                "p"
            ),
            Outcome::NotProved
        );
    }

    #[test]
    fn fresh_objects_are_freely_modifiable() {
        assert_eq!(
            check_src(
                "field f proc p(t) impl p(t) { var x in x := new() ; x.f := 3 end }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn field_read_after_write() {
        assert_eq!(
            check_src(
                "field f proc p(t) modifies t.f
                 impl p(t) { t.f := 3 ; assert t.f = 3 }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn choice_requires_both_arms() {
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) { var x in { x := 1 [] x := 2 } ; assert x = 1 end }",
                "p"
            ),
            Outcome::NotProved
        );
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) { var x in { x := 1 [] x := 1 } ; assert x = 1 end }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn if_sugar_flows_conditions() {
        assert_eq!(
            check_src(
                "proc p(t) impl p(t) {
                   var x in
                     if t = null then x := 1 else x := 2 end ;
                     assert x = 1 || x = 2
                   end
                 }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn call_requires_callers_license() {
        // callee modifies u.f; caller q has no license at all.
        assert_eq!(
            check_src(
                "field f proc callee(u) modifies u.f
                 proc q(t) impl q(t) { callee(t) }",
                "q"
            ),
            Outcome::NotProved
        );
        // With a covering license it verifies.
        assert_eq!(
            check_src(
                "field f proc callee(u) modifies u.f
                 proc q(t) modifies t.f impl q(t) { callee(t) }",
                "q"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn call_frame_preserves_unrelated_fields() {
        // callee may change t.f but not t.other.
        assert_eq!(
            check_src(
                "field f field other proc callee(u) modifies u.f
                 proc q(t) modifies t.f
                 impl q(t) { var n in n := t.other ; callee(t) ; assert n = t.other end }",
                "q"
            ),
            Outcome::Proved
        );
        // The modified field itself is not preserved.
        assert_eq!(
            check_src(
                "field f proc callee(u) modifies u.f
                 proc q(t) modifies t.f
                 impl q(t) { var n in n := t.f ; callee(t) ; assert n = t.f end }",
                "q"
            ),
            Outcome::NotProved
        );
    }

    #[test]
    fn null_checks_flag_rejects_unguarded_deref() {
        let src = "field f proc p(t) impl p(t) { var x in x := t.f end }";
        assert_eq!(
            check_src_with(
                src,
                "p",
                CheckOptions {
                    null_checks: true,
                    ..CheckOptions::default()
                }
            ),
            Outcome::NotProved
        );
        // Guarded by an assumption, it verifies.
        let guarded = "field f proc p(t) impl p(t) { assume t != null ; var x in x := t.f end }";
        assert_eq!(
            check_src_with(
                guarded,
                "p",
                CheckOptions {
                    null_checks: true,
                    ..CheckOptions::default()
                }
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn slot_write_requires_elem_license() {
        // Writing a slot of a fresh array is fine without any license.
        assert_eq!(
            check_src(
                "group g
                 field arr in g maps elem g into g
                 proc p(t)
                 impl p(t) { var a in a := new() ; a[0] := null end }",
                "p"
            ),
            Outcome::Proved
        );
        // Writing a slot of an elem-licensed array verifies.
        assert_eq!(
            check_src(
                "group g
                 field arr in g maps elem g into g
                 proc p(t) modifies t.g
                 impl p(t) { assume t != null && t.arr != null ; t.arr[0] := null }",
                "p"
            ),
            Outcome::Proved
        );
        // Without the license it is rejected.
        assert_ne!(
            check_src(
                "group g
                 field arr in g maps elem g into g
                 proc p(t)
                 impl p(t) { assume t != null && t.arr != null ; t.arr[0] := null }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn reads_clause_licenses_dereferences() {
        // Reading t.f with `reads t.g` (f in g) verifies.
        assert_eq!(
            check_src(
                "group g field f in g proc p(t) reads t.g
                 impl p(t) { var x in x := t.f end }",
                "p"
            ),
            Outcome::Proved
        );
        // Reflexive frame: reading exactly the declared field.
        assert_eq!(
            check_src(
                "field f proc p(t) reads t.f
                 impl p(t) { var x in x := t.f end }",
                "p"
            ),
            Outcome::Proved
        );
        // An undeclared read is rejected.
        assert_eq!(
            check_src(
                "field f field h proc p(t) reads t.f
                 impl p(t) { var x in x := t.h end }",
                "p"
            ),
            Outcome::NotProved
        );
        // No clause at all leaves reads unconstrained.
        assert_eq!(
            check_src("field f proc p(t) impl p(t) { var x in x := t.f end }", "p"),
            Outcome::Proved
        );
    }

    #[test]
    fn reads_frame_does_not_leak_to_other_objects() {
        assert_eq!(
            check_src(
                "field f proc p(t, u) reads t.f
                 impl p(t, u) { var x in x := u.f end }",
                "p"
            ),
            Outcome::NotProved
        );
    }

    #[test]
    fn call_requires_callers_read_license() {
        // callee reads u.f; caller's frame does not cover it.
        assert_eq!(
            check_src(
                "field f field h proc callee(u) reads u.f
                 proc q(t) reads t.h impl q(t) { callee(t) }",
                "q"
            ),
            Outcome::NotProved
        );
        // A covering frame verifies.
        assert_eq!(
            check_src(
                "field f proc callee(u) reads u.f
                 proc q(t) reads t.f impl q(t) { callee(t) }",
                "q"
            ),
            Outcome::Proved
        );
        // A caller without a reads clause is unconstrained.
        assert_eq!(
            check_src(
                "field f proc callee(u) reads u.f
                 proc q(t) impl q(t) { callee(t) }",
                "q"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn invariant_preserved_at_exit() {
        // Writing a value that re-establishes the invariant verifies.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc p(t) modifies t.g impl p(t) { t.f := 0 }",
                "p"
            ),
            Outcome::Proved
        );
        // Writing a violating value is rejected.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc p(t) modifies t.g impl p(t) { t.f := 1 }",
                "p"
            ),
            Outcome::NotProved
        );
        // A body that never touches invariant state preserves it.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc p(t) impl p(t) { skip }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn invariant_checked_at_call_boundary() {
        // The invariant is broken when control transfers to the callee.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc callee(u)
                 proc p(t) modifies t.g
                 impl p(t) { t.f := 1 ; callee(t) ; t.f := 0 }",
                "p"
            ),
            Outcome::NotProved
        );
        // Restoring it before the call verifies.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc callee(u)
                 proc p(t) modifies t.g
                 impl p(t) { t.f := 1 ; t.f := 0 ; callee(t) }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn invariant_assumed_after_call() {
        // After the call the invariant may be assumed again: the assert
        // cannot be discharged by the frame (t.g is modifiable) but
        // follows from the callee's preservation obligation.
        assert_eq!(
            check_src(
                "group g field f in g invariant this.f = 0
                 proc callee(u) modifies u.g
                 proc p(t) modifies t.g
                 impl p(t) { assume t != null ; callee(t) ; assert t.f = 0 }",
                "p"
            ),
            Outcome::Proved
        );
    }

    #[test]
    fn vc_seeds_reflexive_inclusions() {
        let vc = first_vc("group g proc p(t) modifies t.g impl p(t) { skip }");
        let reflexive = Formula::Atom(Atom::Inc {
            store: Term::store0(),
            obj: Term::var("t"),
            attr: Term::attr("g"),
            obj2: Term::var("t"),
            attr2: Term::attr("g"),
        });
        assert!(vc.hypotheses.init().contains(&reflexive));
    }

    #[test]
    fn vc_size_is_positive() {
        let vc = first_vc("proc p(t) impl p(t) { skip }");
        assert!(vc.size() > 10);
        assert_eq!(vc.proc_name, "p");
    }
}
