//! Known answers, none of them taken from the checker under test.
//!
//! The paper-corpus table is written by hand from the recorded experiments
//! (EXPERIMENTS.md E2–E12): every obligation verifies except the leaking
//! `impl m` of §3.0 (rejected by pivot uniqueness, E2), the bad call site
//! of §3.1 (refuted by owner exclusion, E3), and the delegating array
//! `touch`, which is prover-hard (E9, E12): it may verify or run out of
//! budget, but must never be refuted. Generated units carry their answer
//! by construction: scaled, invariant, and read-effect units verify.

/// The verdicts an obligation may receive, as `Verdict::label` strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Verified,
    Refuted,
    RestrictionViolation,
    VerifiedOrUnknown,
}

impl Expect {
    pub fn admits(self, label: &str) -> bool {
        match self {
            Expect::Verified => label == "verified",
            Expect::Refuted => label == "not verified",
            Expect::RestrictionViolation => label == "restriction violation",
            Expect::VerifiedOrUnknown => label == "verified" || label == "unknown",
        }
    }
}

use Expect::{Refuted, RestrictionViolation, Verified, VerifiedOrUnknown};

/// `(unit, procedure, expected verdict)` for the 27 paper obligations, in
/// batch order.
pub const PAPER: [(&str, &str, Expect); 27] = [
    ("section30_q", "q", Verified),
    ("section30_full", "q", Verified),
    ("section30_full", "m", RestrictionViolation),
    ("section31_w", "w", Verified),
    ("section31_bad_call", "w", Verified),
    ("section31_bad_call", "bad_caller", Refuted),
    ("example1", "p", Verified),
    ("example2", "twice", Verified),
    ("example3", "updateAll", Verified),
    ("rational", "normalize", Verified),
    ("stack_module", "vinit", Verified),
    ("stack_module", "vgrow", Verified),
    ("stack_module", "sinit", Verified),
    ("stack_module", "push", Verified),
    ("modular_stack", "vinit", Verified),
    ("modular_stack", "vgrow", Verified),
    ("modular_stack", "sinit", Verified),
    ("modular_stack", "push", Verified),
    ("array_table", "binc", Verified),
    ("array_table", "tinit", Verified),
    ("array_table", "touch", VerifiedOrUnknown),
    ("array_table", "touch_direct", Verified),
    ("array_table", "observer", Verified),
    ("registry", "notify", Verified),
    ("registry", "rinit", Verified),
    ("registry", "subscribe", Verified),
    ("registry", "fire_first", Verified),
];

/// The expected verdict of one paper obligation.
fn paper_expect(unit: &str, proc: &str) -> Option<Expect> {
    PAPER
        .iter()
        .find(|(u, p, _)| *u == unit && *p == proc)
        .map(|&(_, _, e)| e)
}

/// Checks an obligation list against the known answers: the paper table
/// for paper units (each of which must list exactly its table rows, in
/// order), `verified` for every other unit. Returns one message per wrong
/// verdict.
pub fn check_verdicts<'a>(
    obligations: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
) -> Vec<String> {
    let mut wrong = Vec::new();
    let mut paper_seen = Vec::new();
    for (unit, proc, label) in obligations {
        let expect = match paper_expect(unit, proc) {
            Some(expect) => {
                paper_seen.push((unit, proc));
                expect
            }
            None => Verified,
        };
        if !expect.admits(label) {
            wrong.push(format!("{unit}::{proc} was `{label}`, expected {expect:?}"));
        }
    }
    let table: Vec<(&str, &str)> = PAPER
        .iter()
        .filter(|(u, _, _)| paper_seen.iter().any(|(seen, _)| seen == u))
        .map(|&(u, p, _)| (u, p))
        .collect();
    if paper_seen != table {
        wrong.push(format!(
            "paper obligations incomplete or out of order: got {paper_seen:?}"
        ));
    }
    wrong
}
