//! Assembling a [`Diagnosis`]: the source-level explanation of a refuted
//! obligation, validated by interpreter replay.

use crate::concretize::concretize;
use crate::replay::{replay_plan, replay_restriction, Replay};
use datagroups::{ObligationKind, ObligationLabel, Refutation, Vc};
use oolong_sema::{ImplId, Scope};
use oolong_syntax::{Diagnostic, LineMap, Span};

/// A source-level explanation of one rejected implementation: which
/// clause is violated, where, through which locations, and on what
/// concrete initial store — with the interpreter's verdict on whether the
/// counterexample is real.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnosis {
    /// Name of the implemented procedure.
    pub proc_name: String,
    /// The violated obligation's kind.
    pub kind: ObligationKind,
    /// Id of the position label that landed on the refuting branch, when
    /// the rejection came from a VC (restriction violations have none).
    pub label_id: Option<u32>,
    /// Byte span of the offending command.
    pub span: Span,
    /// One-based line of the offending command.
    pub line: u32,
    /// One-based column of the offending command.
    pub col: u32,
    /// The source text under the span.
    pub snippet: String,
    /// Description of the violated clause.
    pub clause: String,
    /// Determined inclusion-relation entries of the refuting branch: the
    /// location chain the license check walked.
    pub touched: Vec<String>,
    /// The concrete initial store (rendered writes), from concretization.
    pub pre_store: Vec<String>,
    /// The concrete argument values.
    pub args: Vec<String>,
    /// The interpreter's verdict on the counterexample.
    pub replay: Replay,
}

impl Diagnosis {
    /// Whether replay dynamically confirmed the counterexample.
    pub fn confirmed(&self) -> bool {
        self.replay.is_confirmed()
    }

    /// Points the diagnosis at `label`, rendered against `source`: its
    /// kind, label id, span, line, column, snippet and clause. A cached
    /// diagnosis is re-anchored this way, because an edit that only moves
    /// text keeps the obligation's fingerprint but not its positions.
    pub fn anchor(&mut self, label: &ObligationLabel, source: &str) {
        let lc = LineMap::new(source).line_col(label.span.start);
        self.kind = label.kind;
        self.label_id = Some(label.id);
        self.span = label.span;
        self.line = lc.line;
        self.col = lc.col;
        self.snippet = label.span.snippet(source).to_string();
        self.clause = label.detail.clone();
    }
}

/// Renders the true inclusion entries of the model as a location chain.
fn touched_chain(refutation: &Refutation) -> Vec<String> {
    let Some(model) = &refutation.model else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for rel in &model.relations {
        if rel.sym != "PInc" || rel.value != Some(true) {
            continue;
        }
        // Inc(store, obj, attr, obj2, attr2): obj·attr ≽ obj2·attr2.
        if let [_, obj, attr, obj2, attr2] = rel.args[..] {
            let repr = |i: usize| model.classes[i].repr.to_string();
            out.push(format!(
                "{}·{} ≽ {}·{}",
                repr(obj),
                repr(attr),
                repr(obj2),
                repr(attr2)
            ));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Diagnoses a refuted verification condition: resolves the primary
/// position label to its source command, concretizes the candidate
/// model, and replays it through the interpreter.
///
/// Returns `None` when the refutation carries no position label (which
/// over labelled VCs means the prover refuted a frame or equality
/// conjunct — not an obligation we can attribute).
pub fn diagnose_refutation(
    scope: &Scope,
    source: &str,
    vc: &Vc,
    refutation: &Refutation,
) -> Option<Diagnosis> {
    let primary = refutation.primary.as_ref()?;
    let plan = match &refutation.model {
        Some(model) => {
            let params = scope
                .proc_info(scope.impl_info(vc.impl_id).proc)
                .params
                .clone();
            concretize(scope, model, &params)
        }
        None => crate::concretize::PreStorePlan::default(),
    };
    let (replay, pre_store, args) = replay_plan(scope, vc.impl_id, &plan, primary.kind);
    let mut diagnosis = Diagnosis {
        proc_name: vc.proc_name.clone(),
        kind: primary.kind,
        label_id: None,
        span: primary.span,
        line: 0,
        col: 0,
        snippet: String::new(),
        clause: String::new(),
        touched: touched_chain(refutation),
        pre_store,
        args,
        replay,
    };
    diagnosis.anchor(primary, source);
    Some(diagnosis)
}

/// Diagnoses a pivot-uniqueness restriction violation (syntactic, no VC):
/// points at the first violation's span and validates dynamically via the
/// store audit.
pub fn diagnose_restriction(
    scope: &Scope,
    source: &str,
    impl_id: ImplId,
    proc_name: &str,
    violations: &[Diagnostic],
) -> Option<Diagnosis> {
    let first = violations.first()?;
    let lc = LineMap::new(source).line_col(first.span.start);
    Some(Diagnosis {
        proc_name: proc_name.to_string(),
        kind: ObligationKind::PivotUniqueness,
        label_id: None,
        span: first.span,
        line: lc.line,
        col: lc.col,
        snippet: first.span.snippet(source).to_string(),
        clause: first.message.clone(),
        touched: Vec::new(),
        pre_store: Vec::new(),
        args: Vec::new(),
        replay: replay_restriction(scope, impl_id),
    })
}
