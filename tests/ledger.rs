//! The golden ledger: every obligation of the paper corpus and of the
//! generated populations (plain, cyclic, branchy, seeded-violation,
//! invariant, read-effect), proved by a fresh in-memory [`Engine`] under a
//! roomy budget and deliberately starved ones, recorded one line per
//! obligation in `tests/golden/ledger.tsv`:
//!
//! population, unit, procedure, budget, fingerprint, verdict, primary
//! label (`kind:id`), refutation labels, exhausted reason, every
//! [`Stats::to_fields`] counter, and the per-quantifier rows that did any
//! matching work.
//!
//! Any change to what the checker decides, what it blames, or how much
//! work the prover spends shows up as a ledger diff. A change that keeps
//! the ledger byte-identical kept the behaviour; one that moves it must be
//! re-blessed with a stated reason:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test ledger
//! ```
//!
//! A re-bless rewrites fingerprints, counters and quantifier rows, but
//! fails, naming the row, if any verdict, blamed label or exhaustion
//! reason would move: a deliberate verdict change is a hand edit of the
//! golden file.
//!
//! Each population also re-proves every obligation against its *full*
//! scope background and asserts that axiom slicing is invisible: the same
//! verdict, refutation labels, divergence attribution, and work counters,
//! with the quantifier rows that did work agreeing as multisets (slicing
//! drops only axioms with zero E-matches, so only registration counts may
//! shrink).

use oolong::corpus::{self, GenConfig};
use oolong::datagroups::{BackgroundSlice, CheckOptions, Checker, Verdict};
use oolong::engine::{BatchUnit, Engine, EngineOptions, ObligationReport};
use oolong::prover::{Budget, Stats};
use oolong::syntax::parse_program;
use std::fmt::Write as _;
use std::sync::Mutex;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/ledger.tsv");

/// Population order in the golden file.
const POPULATIONS: [&str; 7] = [
    "paper",
    "generated",
    "cyclic",
    "branchy",
    "seeded",
    "invariant",
    "reads",
];

/// Serializes read-modify-write of the golden file while blessing: the
/// populations' tests run in parallel and each rewrites only its section.
static BLESS: Mutex<()> = Mutex::new(());

/// A roomy-but-bounded budget plus deliberately starved ones, so both
/// `Proved` searches and every `Unknown` exhaustion path are recorded.
/// The roomy budget is capped so that hopeless generated VCs end in
/// `unknown` instead of grinding for minutes.
fn budget_grid() -> Vec<(&'static str, Budget)> {
    let roomy = Budget {
        max_instances: 8_000,
        max_branches: 8_000,
        max_rounds: 400,
        ..Budget::default()
    };
    vec![
        ("roomy", roomy.clone()),
        ("tiny", Budget::tiny()),
        // Once splitting is blocked the search falls back to saturating
        // each stuck branch; the instance cap keeps that grind short.
        (
            "branch-starved",
            Budget {
                max_branches: 6,
                max_instances: 600,
                max_rounds: 60,
                ..roomy.clone()
            },
        ),
        (
            "depth-starved",
            Budget {
                max_depth: 2,
                max_instances: 600,
                max_rounds: 60,
                ..roomy.clone()
            },
        ),
        (
            "instance-starved",
            Budget {
                max_instances: 40,
                max_rounds: 25,
                ..roomy
            },
        ),
    ]
}

/// Branch-heavy choice chains have 2^depth leaves per VC: a tighter grid
/// still completes full searches at the generated depths.
fn branchy_grid() -> Vec<(&'static str, Budget)> {
    vec![
        (
            "branchy-roomy",
            Budget {
                max_instances: 2_500,
                max_branches: 2_000,
                max_rounds: 200,
                ..Budget::default()
            },
        ),
        ("tiny", Budget::tiny()),
        (
            "branch-starved",
            Budget {
                max_branches: 6,
                max_instances: 600,
                max_rounds: 60,
                ..Budget::default()
            },
        ),
        (
            "depth-starved",
            Budget {
                max_depth: 2,
                max_instances: 600,
                max_rounds: 60,
                ..Budget::default()
            },
        ),
    ]
}

fn or_dash(s: String) -> String {
    if s.is_empty() {
        "-".to_string()
    } else {
        s
    }
}

/// One ledger line (without the trailing newline).
fn ledger_line(population: &str, budget: &str, o: &ObligationReport) -> String {
    let refutation = o.verdict.refutation();
    let primary = refutation
        .and_then(|r| r.primary.as_ref())
        .map(|p| format!("{}:{}", p.kind.as_str(), p.id))
        .unwrap_or_default();
    let labels = refutation
        .map(|r| {
            r.labels
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(",")
        })
        .unwrap_or_default();
    let stats = o.verdict.stats();
    let exhausted = stats
        .and_then(|s| s.exhausted)
        .map(|r| r.as_str().to_string())
        .unwrap_or_default();
    let counters = stats
        .map(|s| {
            s.to_fields()
                .into_iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_default();
    let rows = stats
        .map(|s| {
            s.per_quant
                .iter()
                .filter(|q| q.matches > 0 || q.instances > 0 || q.deferred > 0)
                .map(|q| {
                    format!(
                        "q{} {} {} m={} i={} presat={} goal={} d={}",
                        q.id,
                        q.kind,
                        q.trigger,
                        q.matches,
                        q.instances,
                        q.presat_instances,
                        q.goal_instances,
                        q.deferred
                    )
                })
                .collect::<Vec<_>>()
                .join(" ; ")
        })
        .unwrap_or_default();
    let fingerprint = o.fingerprint.map(|f| f.to_string()).unwrap_or_default();
    [
        population.to_string(),
        o.unit.clone(),
        o.proc_name.clone(),
        budget.to_string(),
        or_dash(fingerprint),
        o.verdict.label().to_string(),
        or_dash(primary),
        or_dash(labels),
        or_dash(exhausted),
        or_dash(counters),
        or_dash(rows),
    ]
    .join("\t")
}

/// Strips the `!NN` freshness suffixes from a rendered trigger: fresh
/// symbol numbering depends on how many background formulas were
/// processed before the quantifier, which axiom slicing legitimately
/// shifts. The base names and trigger structure must still agree.
fn normalize_trigger(trigger: &str) -> String {
    let mut out = String::with_capacity(trigger.len());
    let mut chars = trigger.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '!' && chars.peek().is_some_and(|d| d.is_ascii_digit()) {
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                chars.next();
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// A quantifier row keyed without registration ids (slicing shifts ids):
/// kind, normalized trigger, matches, instances, deferrals.
type WorkRow = (String, String, u64, u64, u64);

fn work_row(q: oolong::prover::QuantRow<'_>) -> WorkRow {
    (
        q.kind.to_string(),
        normalize_trigger(q.trigger),
        q.matches,
        q.instances,
        q.deferred,
    )
}

/// The quantifier rows that performed any matching work, as a sorted
/// multiset.
fn work_rows(stats: &Stats) -> Vec<WorkRow> {
    let mut rows: Vec<_> = stats
        .per_quant
        .iter()
        .filter(|q| q.matches > 0 || q.instances > 0 || q.deferred > 0)
        .map(work_row)
        .collect();
    rows.sort();
    rows
}

/// Divergence attribution as comparable data: the exhausted dimension and
/// the culprit rows keyed without ids.
fn divergence_key(stats: &Stats) -> Option<(String, Vec<WorkRow>)> {
    stats.divergence().map(|d| {
        (
            d.reason.as_str().to_string(),
            d.culprits.into_iter().map(work_row).collect(),
        )
    })
}

/// Proves every obligation of `unit` against its full scope background,
/// one shared context per unit, in declaration order. Obligations the
/// prover never sees (restriction violations, translation errors) are
/// `None`.
fn full_background_verdicts(unit: &BatchUnit, budget: &Budget) -> Vec<Option<Verdict>> {
    let program = parse_program(&unit.source).expect("population programs parse");
    let options = CheckOptions {
        budget: budget.clone(),
        ..CheckOptions::default()
    };
    let checker = Checker::new(&program, options).expect("population programs analyse");
    let mut ctx = None;
    checker
        .scope()
        .impls()
        .map(|(impl_id, _)| {
            if !checker.restriction_violations(impl_id).is_empty() {
                return None;
            }
            let vc = checker.vc(impl_id).ok()?;
            let full = BackgroundSlice {
                keep: vec![true; vc.background_hyps],
            };
            let ctx = ctx.get_or_insert_with(|| checker.context_for_slice(&vc, &full));
            Some(checker.verdict_for_vc_in(ctx, &vc, 0))
        })
        .collect()
}

/// Asserts that the engine's (sliced) verdicts equal full-background ones
/// in everything but quantifier-registration telemetry.
fn assert_slicing_invisible(
    unit: &BatchUnit,
    budget: &(&str, Budget),
    sliced: &[&ObligationReport],
) {
    let full = full_background_verdicts(unit, &budget.1);
    assert_eq!(sliced.len(), full.len(), "{}: obligation count", unit.name);
    for (s, f) in sliced.iter().zip(&full) {
        let ctx = format!("{}::{} under {}", unit.name, s.proc_name, budget.0);
        let Some(f) = f else {
            assert!(s.verdict.stats().is_none(), "{ctx}: prover verdict");
            continue;
        };
        assert_eq!(s.verdict.label(), f.label(), "{ctx}: verdict");
        let labels = |v: &Verdict| {
            v.refutation()
                .map(|r| (r.labels.clone(), r.primary.as_ref().map(|p| p.id)))
        };
        assert_eq!(labels(&s.verdict), labels(f), "{ctx}: labels");
        let (Some(s), Some(f)) = (s.verdict.stats(), f.stats()) else {
            continue;
        };
        assert_eq!(s.exhausted, f.exhausted, "{ctx}: exhaustion reason");
        assert_eq!(divergence_key(s), divergence_key(f), "{ctx}: culprits");
        let work = |st: &Stats| {
            [
                st.instances as u64,
                st.branches,
                st.rounds as u64,
                st.max_depth as u64,
                st.peak_nodes as u64,
                st.deferred_instances as u64,
                st.trigger_matches,
                st.merges,
                st.clauses,
                st.pops,
                st.undone_merges,
                st.trail_depth_max as u64,
            ]
        };
        assert_eq!(work(s), work(f), "{ctx}: work counters");
        assert_eq!(work_rows(s), work_rows(f), "{ctx}: work rows");
        assert!(s.quants <= f.quants, "{ctx}: slicing grew the registry");
        assert_eq!(f.sliced_axioms, 0, "{ctx}: full run reported slicing");
    }
}

/// The lines of `population` in a ledger text.
fn section(text: &str, population: &str) -> String {
    text.lines()
        .filter(|l| l.split('\t').next() == Some(population))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The columns a re-bless may not move: unit, procedure, budget,
/// verdict, primary label, refutation labels and exhausted reason.
/// Fingerprints, counters and quantifier rows are free to change.
fn verdict_columns(line: &str) -> Vec<&str> {
    let columns: Vec<&str> = line.split('\t').collect();
    [1, 2, 3, 5, 6, 7, 8]
        .iter()
        .map(|&i| columns.get(i).copied().unwrap_or("<missing>"))
        .collect()
}

/// Refuses a re-bless that would move a verdict: every row of a
/// population already in the golden file must keep its verdict columns
/// ([`verdict_columns`]). A deliberate verdict change is made by editing
/// the golden file by hand, where review sees it.
fn assert_verdicts_kept(population: &str, actual: &str, golden: &str) {
    if golden.is_empty() {
        return;
    }
    let (a, g): (Vec<_>, Vec<_>) = (actual.lines().collect(), golden.lines().collect());
    for (row, (x, y)) in a.iter().zip(&g).enumerate() {
        assert_eq!(
            verdict_columns(x),
            verdict_columns(y),
            "re-bless would move a verdict in population `{population}`, row {row}; \
             edit the golden file by hand for a deliberate verdict change"
        );
    }
    assert_eq!(
        a.len(),
        g.len(),
        "re-bless would change the row count of population `{population}`"
    );
}

/// Runs one population through a fresh engine per budget, checks slicing
/// invisibility, and compares (or, with `UPDATE_GOLDEN`, rewrites) the
/// population's section of the ledger.
fn check_population(population: &str, units: Vec<BatchUnit>, grid: Vec<(&str, Budget)>) {
    let mut actual = String::new();
    for budget in &grid {
        let engine = Engine::new(EngineOptions {
            check: CheckOptions {
                budget: budget.1.clone(),
                ..CheckOptions::default()
            },
            workers: 2,
            ..EngineOptions::default()
        })
        .expect("in-memory engine");
        let report = engine.check_batch(&units);
        assert!(report.unit_errors.is_empty(), "{:?}", report.unit_errors);
        for o in &report.obligations {
            let _ = writeln!(actual, "{}", ledger_line(population, budget.0, o));
        }
        for unit in &units {
            let sliced: Vec<_> = report
                .obligations
                .iter()
                .filter(|o| o.unit == unit.name)
                .collect();
            assert_slicing_invisible(unit, budget, &sliced);
        }
    }

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let _guard = BLESS.lock().unwrap_or_else(|e| e.into_inner());
        let old = std::fs::read_to_string(GOLDEN).unwrap_or_default();
        assert_verdicts_kept(population, &actual, &section(&old, population));
        let out: String = POPULATIONS
            .iter()
            .map(|&p| {
                if p == population {
                    actual.clone()
                } else {
                    section(&old, p)
                }
            })
            .collect();
        std::fs::write(GOLDEN, out).unwrap_or_else(|e| panic!("cannot bless `{GOLDEN}`: {e}"));
        return;
    }
    let golden =
        std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("cannot read `{GOLDEN}`: {e}"));
    let expected = section(&golden, population);
    if actual != expected {
        let (a, e): (Vec<_>, Vec<_>) = (actual.lines().collect(), expected.lines().collect());
        let first = a
            .iter()
            .zip(&e)
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(e.len()));
        panic!(
            "ledger drift in population `{population}` ({} lines, golden {}); first difference \
             at line {first}:\n  actual: {}\n  golden: {}\n\
             re-bless with UPDATE_GOLDEN=1 only for a deliberate, stated change",
            a.len(),
            e.len(),
            a.get(first).unwrap_or(&"<none>"),
            e.get(first).unwrap_or(&"<none>"),
        );
    }
}

fn units(names_and_sources: impl IntoIterator<Item = (String, String)>) -> Vec<BatchUnit> {
    names_and_sources
        .into_iter()
        .map(|(name, source)| BatchUnit { name, source })
        .collect()
}

#[test]
fn ledger_paper_corpus() {
    let programs = corpus::all()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()));
    check_population("paper", units(programs), budget_grid());
}

#[test]
fn ledger_generated_programs() {
    let cfg = GenConfig::default();
    let programs = (0..12).map(|seed| {
        (
            format!("generated-{seed}"),
            corpus::generate_source(seed, &cfg),
        )
    });
    check_population("generated", units(programs), budget_grid());
}

#[test]
fn ledger_cyclic_programs() {
    // Cyclic rep inclusions starve the matcher (the paper's §5 third
    // example): the ledger pins the Unknown outcomes and which budget
    // dimension tripped.
    let programs = (0..6).map(|seed| {
        (
            format!("cyclic-{seed}"),
            corpus::generate_cyclic_source(seed),
        )
    });
    check_population("cyclic", units(programs), budget_grid());
}

#[test]
fn ledger_branchy_programs() {
    // Branch-heavy choice chains: 2^depth case splits per VC, the
    // workload of the undo trail.
    let programs = (0..6).map(|seed| {
        let depth = 3 + (seed as usize % 3);
        (
            format!("branchy-{seed}-depth{depth}"),
            corpus::generate_branchy_source(seed, depth),
        )
    });
    check_population("branchy", units(programs), branchy_grid());
}

#[test]
fn ledger_seeded_violations() {
    // Programs with a known injected bug exercise the refutation path:
    // the ledger pins the refuting labels the prover lands on.
    let programs = (0..15).map(|seed| {
        let v = corpus::generate_seeded_violation_source(seed);
        (format!("seeded-{seed}-{:?}", v.bug), v.source)
    });
    check_population("seeded", units(programs), budget_grid());
}

#[test]
fn ledger_invariant_programs() {
    let programs = (0..6).map(|seed| {
        (
            format!("invariant-{seed}"),
            corpus::generate_invariant_source(seed),
        )
    });
    check_population("invariant", units(programs), budget_grid());
}

#[test]
fn ledger_read_effect_programs() {
    // Read licenses discharge through the goal-directed
    // read-frame-inc-reflexive axiom, so this population pins the
    // per-frame arming of gated axioms.
    let programs = (0..6).map(|seed| {
        (
            format!("reads-{seed}"),
            corpus::generate_read_effect_source(seed),
        )
    });
    check_population("reads", units(programs), budget_grid());
}
