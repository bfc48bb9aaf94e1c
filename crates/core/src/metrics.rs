//! Metrics over checking runs.
//!
//! Two families live here:
//!
//! * **Specification overhead** (experiment E10). Section 6 of the paper
//!   claims that "the overhead for specifying data groups, inclusions, and
//!   modifies lists does not seem overwhelming". [`overhead`] quantifies
//!   this for a program: the fraction of lexical tokens that belong to
//!   specification constructs (`group` declarations, `in` clauses,
//!   `maps … into …` clauses, and `modifies` lists) rather than executable
//!   code.
//! * **Prover telemetry aggregation** (experiment E14). [`prover_metrics`]
//!   folds the per-obligation [`oolong_prover::Stats`] of a checking run
//!   into scope-level totals, per-axiom-kind instantiation counts, and a
//!   hottest-axioms table — the measurement layer under the `oolong stats`
//!   subcommand.

use crate::vcgen::ObligationKind;
use oolong_prover::{QuantKind, Stats};
use oolong_syntax::lexer::lex;
use oolong_syntax::pretty;
use oolong_syntax::{Decl, Program};
use std::collections::HashMap;
use std::fmt;

/// Token counts separating specification from code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadReport {
    /// Tokens in specification constructs.
    pub spec_tokens: usize,
    /// All tokens of the (canonically printed) program.
    pub total_tokens: usize,
}

impl OverheadReport {
    /// Specification tokens as a fraction of all tokens (0 when empty).
    pub fn ratio(&self) -> f64 {
        if self.total_tokens == 0 {
            0.0
        } else {
            self.spec_tokens as f64 / self.total_tokens as f64
        }
    }
}

impl fmt::Display for OverheadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} tokens are specification ({:.1}%)",
            self.spec_tokens,
            self.total_tokens,
            self.ratio() * 100.0
        )
    }
}

/// One axiom family's aggregate across all obligations of a report,
/// merged by (kind, rendered trigger) — structurally identical background
/// axioms recur in every verification condition of a scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotAxiom {
    /// Vocabulary classification of the axiom.
    pub kind: QuantKind,
    /// Rendered trigger set (the merge key alongside `kind`).
    pub trigger: String,
    /// Trigger-match bindings found, summed.
    pub matches: u64,
    /// Instantiations performed, summed.
    pub instances: u64,
    /// Instantiations performed during background pre-saturation, summed.
    pub presat_instances: u64,
    /// Instantiations performed inside obligation frames, summed.
    pub goal_instances: u64,
    /// Instantiations deferred by the matching-generation limit, summed.
    pub deferred: u64,
    /// How many obligations registered this axiom.
    pub obligations: usize,
}

impl fmt::Display for HotAxiom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {} instances ({} presat + {} goal), {} matches over {} obligation(s)",
            self.kind,
            if self.trigger.is_empty() {
                "(no trigger)"
            } else {
                &self.trigger
            },
            self.instances,
            self.presat_instances,
            self.goal_instances,
            self.matches,
            self.obligations
        )
    }
}

/// Scope-level aggregation of prover telemetry (see [`prover_metrics`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProverMetrics {
    /// Obligations that reached the prover (i.e. carried stats).
    pub obligations: usize,
    /// Obligations whose budget ran out.
    pub unknown: usize,
    /// Total quantifier instantiations.
    pub instances: u64,
    /// Quantifier instantiations performed during background
    /// pre-saturation (reported once per obligation proved against the
    /// shared context, though each proof's instance window counts only
    /// its own).
    pub presat_instances: u64,
    /// Quantifier instantiations performed inside obligation frames,
    /// after the goal terms were asserted.
    pub goal_instances: u64,
    /// Total trigger-match bindings.
    pub trigger_matches: u64,
    /// Total E-graph merges.
    pub merges: u64,
    /// Total case-split branches.
    pub branches: u64,
    /// Total disjunctions registered.
    pub clauses: u64,
    /// Total instantiations deferred by the matching-generation limit.
    pub deferred: u64,
    /// Total backtracking checkpoints unwound (trail-mode search).
    pub pops: u64,
    /// Total E-graph merges rolled back by backtracking (trail mode).
    pub undone_merges: u64,
    /// Deepest undo trail across all obligations (trail mode).
    pub trail_depth_max: u64,
    /// Total background axioms sliced away by relevance slicing, summed
    /// across obligations.
    pub sliced_axioms: u64,
    /// Instantiations per axiom kind, in a fixed order
    /// (rep-inclusion, inclusion, store, other).
    pub by_kind: Vec<(QuantKind, u64)>,
    /// Labeled proof-obligation conjuncts per obligation kind, summed
    /// across implementations, in [`ObligationKind::ALL`] order with
    /// zero-count kinds omitted.
    pub obligation_kinds: Vec<(ObligationKind, u64)>,
    /// Axioms merged across obligations, hottest (by instantiation
    /// pressure) first.
    pub hottest: Vec<HotAxiom>,
}

impl ProverMetrics {
    /// The `n` hottest axioms.
    pub fn top(&self, n: usize) -> &[HotAxiom] {
        &self.hottest[..self.hottest.len().min(n)]
    }
}

impl fmt::Display for ProverMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} obligation(s): {} instances ({} presat + {} goal), {} matches, {} merges, {} branches, {} clauses",
            self.obligations,
            self.instances,
            self.presat_instances,
            self.goal_instances,
            self.trigger_matches,
            self.merges,
            self.branches,
            self.clauses
        )?;
        writeln!(
            f,
            "backtracking: {} pops, {} undone merges, trail depth {}",
            self.pops, self.undone_merges, self.trail_depth_max
        )?;
        writeln!(
            f,
            "axiom slicing: {} axioms sliced away",
            self.sliced_axioms
        )?;
        writeln!(f, "instantiations by axiom kind:")?;
        for (kind, instances) in &self.by_kind {
            writeln!(f, "  {kind}: {instances}")?;
        }
        if !self.obligation_kinds.is_empty() {
            writeln!(f, "labeled obligations by kind:")?;
            for (kind, count) in &self.obligation_kinds {
                writeln!(f, "  {kind}: {count}")?;
            }
        }
        if !self.hottest.is_empty() {
            writeln!(f, "hottest axioms:")?;
            for axiom in self.top(5) {
                writeln!(f, "  {axiom}")?;
            }
        }
        Ok(())
    }
}

/// Aggregates the prover telemetry of a checking run: totals across the
/// `stats` of the obligations that reached the prover, instantiation counts
/// per axiom kind, and a hottest-axioms table merged by (kind, trigger).
/// `kind_counts` are the labeled obligation conjuncts of every generated VC
/// ([`crate::Vc::kind_counts`]), summed per kind.
pub fn prover_metrics<'a>(
    stats: impl IntoIterator<Item = &'a Stats>,
    kind_counts: impl IntoIterator<Item = (ObligationKind, u32)>,
) -> ProverMetrics {
    let stats: Vec<&Stats> = stats.into_iter().collect();
    let mut metrics = ProverMetrics {
        obligations: stats.len(),
        unknown: stats.iter().filter(|s| s.exhausted.is_some()).count(),
        ..ProverMetrics::default()
    };
    let mut kind_totals: [(QuantKind, u64); 4] = [
        (QuantKind::RepInclusion, 0),
        (QuantKind::Inclusion, 0),
        (QuantKind::Store, 0),
        (QuantKind::Other, 0),
    ];
    // Keyed by the rows' shared trigger text: a trigger is copied once
    // per distinct axiom, not once per row of every obligation.
    let mut merged: HashMap<(QuantKind, &'a str), HotAxiom> = HashMap::new();
    for s in stats {
        metrics.instances += s.instances as u64;
        metrics.trigger_matches += s.trigger_matches;
        metrics.merges += s.merges;
        metrics.branches += s.branches;
        metrics.clauses += s.clauses;
        metrics.deferred += s.deferred_instances as u64;
        metrics.pops += s.pops;
        metrics.undone_merges += s.undone_merges;
        metrics.trail_depth_max = metrics.trail_depth_max.max(s.trail_depth_max as u64);
        metrics.sliced_axioms += s.sliced_axioms as u64;
        for q in s.per_quant.iter() {
            let slot = kind_totals
                .iter_mut()
                .find(|(k, _)| *k == q.kind)
                .expect("all kinds listed");
            slot.1 += q.instances;
            metrics.presat_instances += q.presat_instances;
            metrics.goal_instances += q.goal_instances;
            let entry = merged
                .entry((q.kind, q.trigger))
                .or_insert_with(|| HotAxiom {
                    kind: q.kind,
                    trigger: q.trigger.to_string(),
                    matches: 0,
                    instances: 0,
                    presat_instances: 0,
                    goal_instances: 0,
                    deferred: 0,
                    obligations: 0,
                });
            entry.matches += q.matches;
            entry.instances += q.instances;
            entry.presat_instances += q.presat_instances;
            entry.goal_instances += q.goal_instances;
            entry.deferred += q.deferred;
            entry.obligations += 1;
        }
    }
    metrics.by_kind = kind_totals.to_vec();
    let mut obligation_totals: HashMap<ObligationKind, u64> = HashMap::new();
    for (kind, n) in kind_counts {
        *obligation_totals.entry(kind).or_default() += n as u64;
    }
    metrics.obligation_kinds = ObligationKind::ALL
        .iter()
        .filter_map(|kind| obligation_totals.get(kind).map(|&n| (*kind, n)))
        .collect();
    let mut hottest: Vec<HotAxiom> = merged.into_values().collect();
    hottest.sort_by(|a, b| {
        (b.instances + b.deferred)
            .cmp(&(a.instances + a.deferred))
            .then_with(|| a.trigger.cmp(&b.trigger))
    });
    hottest.retain(|a| a.matches > 0 || a.instances > 0 || a.deferred > 0);
    metrics.hottest = hottest;
    metrics
}

fn count_tokens(source: &str) -> usize {
    let (tokens, _) = lex(source);
    tokens.len().saturating_sub(1) // drop EOF
}

/// Measures the specification overhead of a program.
pub fn overhead(program: &Program) -> OverheadReport {
    let total_tokens = count_tokens(&pretty::print_program(program));
    let mut spec_tokens = 0;
    for decl in &program.decls {
        match decl {
            // A group declaration is pure specification.
            Decl::Group(_) => spec_tokens += count_tokens(&pretty::print_decl(decl)),
            Decl::Field(fd) => {
                // `in g, h` — keyword + idents + commas.
                if !fd.includes.is_empty() {
                    spec_tokens += 1 + 2 * fd.includes.len() - 1;
                }
                // `maps [elem] x into g, h` per clause.
                for m in &fd.maps {
                    spec_tokens += 3 + 2 * m.into.len() - 1 + usize::from(m.elementwise);
                }
            }
            Decl::Proc(pd) => {
                if !pd.modifies.is_empty() {
                    let entries: usize = pd
                        .modifies
                        .iter()
                        .map(|e| count_tokens(&pretty::print_expr(e)))
                        .sum();
                    // keyword + entries + separating commas.
                    spec_tokens += 1 + entries + pd.modifies.len() - 1;
                }
                // `reads t.g, t.h` — same accounting as modifies.
                if let Some(reads) = &pd.reads {
                    let entries: usize = reads
                        .iter()
                        .map(|e| count_tokens(&pretty::print_expr(e)))
                        .sum();
                    spec_tokens += 1 + entries + reads.len().saturating_sub(1);
                }
            }
            // An invariant declaration is pure specification.
            Decl::Invariant(_) => spec_tokens += count_tokens(&pretty::print_decl(decl)),
            Decl::Impl(_) => {}
            // Module syntax (`module M imports N { … }`) is organisational,
            // not specification; its member declarations are measured via
            // recursion on the flattened body.
            Decl::Module(m) => {
                let inner = overhead(&Program {
                    decls: m.decls.clone(),
                });
                spec_tokens += inner.spec_tokens;
            }
        }
    }
    OverheadReport {
        spec_tokens,
        total_tokens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_syntax::parse_program;

    #[test]
    fn pure_code_has_zero_overhead() {
        let p = parse_program("proc p(t) impl p(t) { skip }").unwrap();
        let r = overhead(&p);
        assert_eq!(r.spec_tokens, 0);
        assert!(r.total_tokens > 0);
        assert_eq!(r.ratio(), 0.0);
    }

    #[test]
    fn group_declarations_count_fully() {
        let p = parse_program("group g").unwrap();
        let r = overhead(&p);
        assert_eq!(r.spec_tokens, 2); // `group`, `g`
        assert_eq!(r.total_tokens, 2);
        assert_eq!(r.ratio(), 1.0);
    }

    #[test]
    fn clauses_counted_precisely() {
        // field f in a, b  →  in a , b = 4 spec tokens of 6 total.
        let p = parse_program("group a group b field f in a, b").unwrap();
        let r = overhead(&p);
        assert_eq!(r.spec_tokens, 2 + 2 + 4);
        // maps x into g = 4 tokens.
        let p2 = parse_program("group g field x field f maps x into g").unwrap();
        let r2 = overhead(&p2);
        assert_eq!(r2.spec_tokens, 2 + 4);
    }

    #[test]
    fn modifies_lists_counted() {
        // modifies t.c.g, t.d = 1 + 5 + 1 + 3 = 10? t.c.g lexes to 5
        // tokens (t . c . g), t.d to 3, plus `modifies` and one comma.
        let p = parse_program("group g field c field d proc p(t) modifies t.c.g, t.d").unwrap();
        let r = overhead(&p);
        // `group g` (2) + `modifies` (1) + `t.c.g` (5) + `,` (1) + `t.d` (3).
        assert_eq!(r.spec_tokens, 2 + 1 + 5 + 1 + 3);
    }

    #[test]
    fn elementwise_clause_counts_one_extra_token() {
        let plain = parse_program("group g field x field f maps x into g").unwrap();
        let elem = parse_program("group g field x field f maps elem x into g").unwrap();
        assert_eq!(
            overhead(&elem).spec_tokens,
            overhead(&plain).spec_tokens + 1
        );
    }

    #[test]
    fn prover_metrics_aggregate_checked_obligations() {
        use crate::checker::{CheckOptions, Checker, Verdict};
        let p = parse_program(
            "group value
             field num in value
             proc bump(r) modifies r.value
             impl bump(r) { r.num := r.num + 1 }
             proc twice(r) modifies r.value
             impl twice(r) { bump(r) ; bump(r) }",
        )
        .unwrap();
        let checker = Checker::new(&p, CheckOptions::default()).unwrap();
        let vcs: Vec<_> = checker
            .scope()
            .impls()
            .map(|(id, _)| checker.vc(id).unwrap())
            .collect();
        let verdicts: Vec<_> = vcs.iter().map(|vc| checker.verdict_for_vc(vc)).collect();
        assert!(verdicts.iter().all(Verdict::is_verified));
        let m = prover_metrics(
            verdicts.iter().filter_map(Verdict::stats),
            vcs.iter().flat_map(|vc| vc.kind_counts()),
        );
        assert_eq!(m.obligations, 2);
        assert_eq!(m.unknown, 0);
        assert!(m.instances > 0);
        assert!(m.trigger_matches >= m.instances);
        assert!(m.merges > 0);
        assert_eq!(m.by_kind.len(), 4);
        let total_by_kind: u64 = m.by_kind.iter().map(|(_, n)| n).sum();
        assert_eq!(total_by_kind, m.instances);
        assert_eq!(
            m.presat_instances + m.goal_instances,
            m.instances,
            "every instantiation is attributed to exactly one phase"
        );
        assert!(!m.hottest.is_empty());
        // Hottest table is sorted by instantiation pressure.
        for pair in m.hottest.windows(2) {
            assert!(pair[0].instances + pair[0].deferred >= pair[1].instances + pair[1].deferred);
        }
        // Both obligations see the same background axioms, so merged rows
        // count two obligations each.
        assert!(m.hottest.iter().any(|a| a.obligations == 2));
    }

    #[test]
    fn realistic_program_ratio_is_moderate() {
        let p = parse_program(
            "group value
             field num in value
             field den in value
             proc normalize(r) modifies r.value
             impl normalize(r) {
               assume r != null ;
               r.num := r.num + 1 ;
               r.den := r.den + 1
             }",
        )
        .unwrap();
        let r = overhead(&p);
        assert!(r.ratio() > 0.05 && r.ratio() < 0.5, "ratio {}", r.ratio());
    }
}
