//! Integration tests for the incremental verification engine: verdict
//! equivalence with a fresh single-worker engine over the whole paper
//! corpus,
//! warm-vs-cold batch behaviour (zero prover calls on unchanged impls,
//! established by counting event kinds in the JSONL log), and invalidation
//! selectivity (editing one procedure's modifies clause re-runs only the
//! obligations whose VCs mention it).

use oolong::corpus::{generate_unannotated_source, UnannotatedConfig};
use oolong::datagroups::{Axiom, CheckOptions, Checker, ObligationKind, ObligationLabel, Verdict};
use oolong::diagnose::Diagnosis;
use oolong::engine::{
    context_key, fingerprint_vc, json, BatchReport, BatchUnit, CachedVerdict, ContextPool,
    CutoffMap, DiskTier, Engine, EngineOptions, Fingerprint, Json, MemoryTier, VerdictStore,
    DEFAULT_CONTEXT_CAPACITY, DEFAULT_MEMORY_CAPACITY,
};
use oolong::logic::{Formula, Phase};
use oolong::prover::Stats;
use oolong::sema::Scope;
use oolong::syntax::{parse_program, MAX_NESTING};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

fn corpus_units() -> Vec<BatchUnit> {
    oolong::corpus::all()
        .iter()
        .map(|p| BatchUnit {
            name: p.name.to_string(),
            source: p.source.to_string(),
        })
        .collect()
}

/// Structural verdict equality: same outcome, same prover statistics, same
/// open-branch sketch. (Verdict itself has no PartialEq because diagnostics
/// carry spans.)
fn same_verdict(a: &Verdict, b: &Verdict) -> bool {
    a.label() == b.label() && a.stats() == b.stats() && a.open_branch() == b.open_branch()
}

/// The engine's verdicts — cold *and* warm, at four workers — match a
/// fresh single-worker engine on every program of the embedded paper
/// corpus: the worker count changes neither verdicts nor counters.
#[test]
fn cache_equivalence_over_the_paper_corpus() {
    let units = corpus_units();
    let engine = Engine::new(EngineOptions {
        workers: 4,
        ..EngineOptions::default()
    })
    .expect("in-memory engine");
    let cold = engine.check_batch(&units);
    let warm = engine.check_batch(&units);
    assert!(cold.unit_errors.is_empty(), "corpus programs all analyse");
    assert_eq!(cold.obligations.len(), warm.obligations.len());

    let fresh: Vec<_> = Engine::new(EngineOptions {
        workers: 1,
        ..EngineOptions::default()
    })
    .expect("in-memory engine")
    .check_batch(&units)
    .obligations
    .into_iter()
    .map(|o| (o.unit, o.proc_name, o.verdict))
    .collect();
    assert_eq!(fresh.len(), cold.obligations.len());
    for ((unit, proc, verdict), (c, w)) in fresh
        .iter()
        .zip(cold.obligations.iter().zip(&warm.obligations))
    {
        assert_eq!(
            (unit.as_str(), proc.as_str()),
            (c.unit.as_str(), c.proc_name.as_str())
        );
        assert!(
            same_verdict(verdict, &c.verdict),
            "cold {unit}/{proc}: engine said {}, one worker said {}",
            c.verdict.label(),
            verdict.label()
        );
        assert!(
            same_verdict(verdict, &w.verdict),
            "warm {unit}/{proc}: engine said {}, one worker said {}",
            w.verdict.label(),
            verdict.label()
        );
    }
    // Every warm obligation with a fingerprint was served from the cache.
    for o in &warm.obligations {
        assert_eq!(o.cache_hit, o.fingerprint.is_some());
    }
    assert_eq!(warm.prover_calls, 0);
}

/// Parses a JSONL event log and counts occurrences of one event kind.
fn count_events(jsonl: &str, kind: &str) -> usize {
    jsonl
        .lines()
        .map(|line| json::parse(line).expect("event line parses"))
        .filter(|v| v.get("event").and_then(Json::as_str) == Some(kind))
        .count()
}

/// A warm batch over an unchanged corpus performs *zero* prover calls —
/// established by the event log, not by timing: no `verified` / `refuted` /
/// `fuel_exhausted` events, one `cache_hit` per obligation.
#[test]
fn warm_batch_makes_no_prover_calls() {
    let dir = std::env::temp_dir().join(format!("oolong-warm-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let units = corpus_units();
    let obligations;
    {
        let engine = Engine::new(EngineOptions {
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        })
        .expect("disk-backed engine");
        let cold = engine.check_batch(&units);
        obligations = cold.obligations.len();
        let log = cold.events_jsonl();
        assert_eq!(count_events(&log, "obligation_started"), obligations);
        assert_eq!(count_events(&log, "cache_hit"), cold.cache_hits);
        assert_eq!(count_events(&log, "batch_summary"), 1);
    }
    // A fresh engine over the same directory: everything it knows came off
    // disk, so the warm run exercises persistence, not process memory.
    let engine = Engine::new(EngineOptions {
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    })
    .expect("reopens");
    let warm = engine.check_batch(&units);
    let log = warm.events_jsonl();
    // Obligations without a fingerprint (restriction violations — the
    // corpus includes the paper's §3.0 counterexamples) are recomputed
    // each run by design; everything with a fingerprint must hit.
    let fingerprinted = warm
        .obligations
        .iter()
        .filter(|o| o.fingerprint.is_some())
        .count();
    assert!(fingerprinted > 0);
    assert_eq!(count_events(&log, "obligation_started"), obligations);
    assert_eq!(count_events(&log, "cache_hit"), fingerprinted);
    assert_eq!(count_events(&log, "verified"), 0);
    assert_eq!(count_events(&log, "refuted"), 0);
    assert_eq!(count_events(&log, "fuel_exhausted"), 0);
    assert_eq!(warm.prover_calls, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Collects the `prover_profile` event of every obligation from a JSONL
/// log, as `(seq, cached, rendered stats object)`.
fn profile_events(jsonl: &str) -> Vec<(u64, bool, String)> {
    jsonl
        .lines()
        .map(|line| json::parse(line).expect("event line parses"))
        .filter(|v| v.get("event").and_then(Json::as_str) == Some("prover_profile"))
        .map(|v| {
            let seq = v.get("seq").and_then(Json::as_u64).expect("seq");
            let cached = matches!(v.get("cached"), Some(Json::Bool(true)));
            let stats = v.get("stats").expect("stats").render();
            (seq, cached, stats)
        })
        .collect()
}

/// Warm rechecks replay the cold run's prover telemetry from the cache:
/// the warm event log carries a `prover_profile` event per fingerprinted
/// obligation whose stats — scalars, exhausted dimension, and per-axiom
/// profile — are byte-identical to the cold run's, while the prover is
/// never called.
#[test]
fn warm_recheck_replays_prover_stats_from_the_event_log() {
    let dir = std::env::temp_dir().join(format!("oolong-replay-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let units = corpus_units();
    let disk = |dir: &std::path::Path| {
        Engine::new(EngineOptions {
            cache_dir: Some(dir.to_path_buf()),
            ..EngineOptions::default()
        })
        .expect("disk-backed engine")
    };
    let cold_profiles = {
        let cold = disk(&dir).check_batch(&units);
        assert!(cold.prover_calls > 0);
        profile_events(&cold.events_jsonl())
    };
    // A fresh engine over the same directory: the replayed stats come off
    // disk, through the cache format, not from process memory.
    let warm = disk(&dir).check_batch(&units);
    assert_eq!(warm.prover_calls, 0, "warm runs never reach the prover");
    let warm_profiles = profile_events(&warm.events_jsonl());

    // The cold run proves most obligations live but may already hit the
    // cache on duplicates (identical impls across corpus units); the warm
    // run replays every one of them. Either way, the telemetry per
    // obligation must be byte-identical.
    assert!(
        cold_profiles.iter().any(|(_, cached, _)| !cached),
        "the cold run profiles live prover work"
    );
    assert_eq!(warm_profiles.len(), cold_profiles.len());
    for ((cold_seq, _, cold_stats), (warm_seq, warm_cached, warm_stats)) in
        cold_profiles.iter().zip(&warm_profiles)
    {
        assert_eq!(cold_seq, warm_seq, "profiles pair up by obligation");
        assert!(warm_cached, "warm profiles are marked as replayed");
        assert_eq!(
            cold_stats, warm_stats,
            "obligation {cold_seq}: replayed stats differ from the cold run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Editing one procedure's modifies clause re-runs exactly the obligations
/// whose VCs depend on it: the edited procedure itself and its callers.
/// Unrelated implementations in the same scope keep their fingerprints and
/// hit the cache.
#[test]
fn modifies_edit_invalidates_only_dependent_impls() {
    let before = "group g
         field f in g
         proc p(r) modifies r.g
         impl p(r) { r.f := 1 }
         proc q(r) modifies r.g
         impl q(r) { r.f := 2 ; r.f := 3 }
         proc caller(r) modifies r.g
         impl caller(r) { q(r) }";
    // Drop q's license: q's own obligation and caller's call-site
    // obligation change; p is untouched.
    let after = before.replace("proc q(r) modifies r.g", "proc q(r)");

    let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
    let cold = engine.check_source("unit", before);
    assert!(cold.all_verified(), "baseline verifies: {:?}", cold.tally());
    assert_eq!(cold.prover_calls, 3);

    let edited = engine.check_source("unit", &after);
    let by_proc = |report: &oolong::engine::BatchReport, name: &str| {
        report
            .obligations
            .iter()
            .find(|o| o.proc_name == name)
            .unwrap_or_else(|| panic!("obligation for {name}"))
            .clone()
    };
    let p = by_proc(&edited, "p");
    assert!(
        p.cache_hit,
        "p's obligation is untouched by q's modifies edit"
    );
    assert_eq!(p.fingerprint, by_proc(&cold, "p").fingerprint);

    let q = by_proc(&edited, "q");
    assert!(!q.cache_hit, "q's own license changed");
    assert_ne!(q.fingerprint, by_proc(&cold, "q").fingerprint);
    assert!(
        !q.verdict.is_verified(),
        "writing r.f without a license is rejected"
    );

    let caller = by_proc(&edited, "caller");
    assert!(!caller.cache_hit, "caller's call-site obligation changed");
    assert_ne!(caller.fingerprint, by_proc(&cold, "caller").fingerprint);

    assert_eq!(edited.cache_hits, 1);
    assert_eq!(edited.prover_calls, 2);
}

/// The verdict cache is sound only if an obligation's fingerprint covers
/// everything its verdict depends on. Change each input the scope
/// background and the VC are built from, one at a time: every obligation
/// either gets a new fingerprint, or proves afresh to exactly the cache
/// entry the unchanged run would serve it.
#[test]
fn fingerprints_cover_what_the_background_is_built_from() {
    const SRC: &str = "group g
         field f in g
         field h
         proc p(r) modifies r.g
         impl p(r) { r.f := 1 }
         proc q(r) modifies r.g
         impl q(r) { r.h := 2 }
         proc c(r) modifies r.g
         impl c(r) { p(r) }";
    let run = |check: CheckOptions, src: &str| {
        let engine = Engine::new(EngineOptions {
            check,
            ..EngineOptions::default()
        })
        .expect("in-memory engine");
        let report = engine.check_source("unit", src);
        assert!(report.unit_errors.is_empty(), "{:?}", report.unit_errors);
        report
            .obligations
            .iter()
            .map(|o| {
                let entry = CachedVerdict::from_verdict(&o.proc_name, &o.verdict, None);
                (o.fingerprint.expect("a proved obligation"), entry)
            })
            .collect::<Vec<_>>()
    };
    let base = run(CheckOptions::default(), SRC);
    let option = |set: fn(&mut CheckOptions)| {
        let mut options = CheckOptions::default();
        set(&mut options);
        (options, SRC.to_string())
    };
    let changes = [
        ("a budget field", option(|o| o.budget.max_instances += 1)),
        ("naive", option(|o| o.naive = true)),
        ("null_checks", option(|o| o.null_checks = true)),
        (
            "force_arrays_level",
            option(|o| o.force_arrays_level = true),
        ),
        // Puts `h` in `g`, which flips `q` from rejected to verified.
        (
            "an added `in` clause",
            (
                CheckOptions::default(),
                SRC.replace("field h", "field h in g"),
            ),
        ),
    ];
    for (input, (options, src)) in changes {
        let changed = run(options, &src);
        assert_eq!(changed.len(), base.len());
        let mut moved = 0;
        for ((fp, entry), (new_fp, new_entry)) in base.iter().zip(&changed) {
            if fp == new_fp {
                assert_eq!(
                    entry, new_entry,
                    "{input}: same fingerprint, different fresh verdict"
                );
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "{input}: no fingerprint changed");
    }
}

/// Fingerprint completeness over the scope background: the engine hashes
/// the background as one digest, so the digest must see every part of an
/// axiom the prover reads. Reordering one axiom's trigger alternatives, or
/// flipping one axiom's phase, must change the digest and with it every
/// fingerprint and every context key of the checker.
#[test]
fn background_digest_covers_triggers_and_phases() {
    const SRC: &str = "group g
         field f in g
         field h
         proc p(r) modifies r.g
         impl p(r) { r.f := 1 }
         proc q(r) modifies r.g, r.h
         impl q(r) { r.h := 2 ; p(r) }";
    let program = parse_program(SRC).expect("parses");
    let build = |edit: fn(&mut [Axiom])| {
        let scope = Scope::analyze(&program).expect("analyses");
        Checker::with_background_edit(scope, CheckOptions::default(), edit)
    };
    // The digest, and per implementation its fingerprint and context key.
    let identity = |checker: &Checker| {
        let budget = &checker.options().budget;
        let keys: Vec<(Fingerprint, u128)> = checker
            .scope()
            .impls()
            .map(|(id, _)| {
                let vc = checker.vc(id).expect("vc generates");
                let slice = checker.background_slice(&vc);
                let phases = checker.sliced_phases(&slice);
                let fingerprint = fingerprint_vc(&vc, budget, &slice.keep, &phases);
                let background = checker.sliced_background(&vc, &slice);
                let key = context_key(&background, &phases, budget, checker.options().strategy);
                (fingerprint, key)
            })
            .collect();
        (checker.shared_background().digest(), keys)
    };
    let base = identity(&build(|_| {}));
    assert_eq!(
        base,
        identity(&build(|_| {})),
        "the identity is deterministic"
    );
    assert_eq!(base.1.len(), 2);

    // The first axiom with a multi-pattern trigger, the patterns of that
    // trigger reversed in the formula and the declared policy alike.
    fn reverse_triggers(axioms: &mut [Axiom]) {
        let axiom = axioms
            .iter_mut()
            .find(|a| !a.policy.multi_patterns.is_empty())
            .expect("some axiom declares a multi-pattern");
        let Formula::Forall(_, triggers, _) = &mut axiom.formula else {
            panic!("`{}` declares triggers but is no quantifier", axiom.name);
        };
        let declared = &mut axiom.policy.multi_patterns[0];
        let trigger = triggers
            .iter_mut()
            .find(|t| *t == declared)
            .expect("the policy's triggers are the formula's");
        trigger.0.reverse();
        declared.0.reverse();
    }
    fn flip_phase(axioms: &mut [Axiom]) {
        let policy = &mut axioms[0].policy;
        policy.phase = match policy.phase {
            Phase::Eager => Phase::GoalDirected,
            Phase::GoalDirected => Phase::Eager,
        };
    }
    type Edit = fn(&mut [Axiom]);
    let edits: [(&str, Edit); 2] = [
        ("one trigger's patterns reordered", reverse_triggers),
        ("one axiom's phase flipped", flip_phase),
    ];
    for (edit, apply) in edits {
        let (digest, keys) = identity(&build(apply));
        assert_ne!(digest, base.0, "{edit}: the background digest did not move");
        for ((fingerprint, key), (base_fingerprint, base_key)) in keys.iter().zip(&base.1) {
            assert_ne!(
                fingerprint, base_fingerprint,
                "{edit}: a fingerprint did not move"
            );
            assert_ne!(key, base_key, "{edit}: a context key did not move");
        }
    }
}

/// Within one batch, obligations whose sliced scope background coincides
/// share one saturated prover context: the pool records a miss for the
/// first and hits for the rest.
#[test]
fn batch_reuses_scope_contexts() {
    // Three store-only bodies of different lengths: distinct fingerprints,
    // but the same vocabulary, so one keep-mask and one context key.
    let src = "group g
         field f in g
         proc p(r) modifies r.g
         impl p(r) { r.f := 1 }
         proc q(r) modifies r.g
         impl q(r) { r.f := 2 ; r.f := 3 }
         proc w(r) modifies r.g
         impl w(r) { r.f := 4 ; r.f := 5 ; r.f := 6 }";
    // One worker: with more, overlapping proofs each get their own
    // context and the exact counts below depend on the interleaving.
    let options = EngineOptions {
        workers: 1,
        ..EngineOptions::default()
    };
    let engine = Engine::new(options.clone()).expect("in-memory engine");
    let report = engine.check_source("unit", src);
    assert_eq!(report.prover_calls, 3);
    let m = engine.contexts().metrics();
    assert_eq!(m.misses, 1, "one context built for the scope");
    assert_eq!(m.hits, 2, "the other obligations reuse it");
    assert_eq!(m.size, 1);

    // A second batch over the same unit hits the verdict cache before it
    // ever needs a context — the pool sees no new traffic.
    let warm = engine.check_source("unit", src);
    assert_eq!(warm.prover_calls, 0);
    let m2 = engine.contexts().metrics();
    assert_eq!((m2.hits, m2.misses), (m.hits, m.misses));

    // A resident engine whose store always misses (an edit that changes
    // every fingerprint): each batch reproves every obligation, and the
    // pooled scope context serves them across batches.
    let resident = Engine::with_store_and_contexts(
        options,
        Arc::new(MemoryTier::with_capacity(0)),
        Arc::new(ContextPool::with_capacity(DEFAULT_CONTEXT_CAPACITY)),
        Arc::new(CutoffMap::with_capacity(DEFAULT_MEMORY_CAPACITY)),
    );
    let mut hits = Vec::new();
    for _ in 0..2 {
        let report = resident.check_source("unit", src);
        assert_eq!(report.prover_calls, 3, "every batch reproves");
        assert_eq!(report.cache_hits, 0);
        hits.push(resident.contexts().metrics().hits);
    }
    assert_eq!(resident.contexts().metrics().misses, 1);
    assert!(hits[1] > hits[0], "later batches reuse the pooled context");
}

/// Concurrent workers on one scope each prove in a context of their own,
/// at most one per worker, and the report is the one-worker report:
/// which context proves an obligation never shows in its verdict.
#[test]
fn concurrent_same_scope_proofs_match_one_worker() {
    // Twelve store-only bodies over one vocabulary: distinct fingerprints,
    // one context key.
    let mut src = String::from("group g field f in g ");
    for i in 1..=12 {
        let body = vec!["r.f := 1"; i].join(" ; ");
        src += &format!("proc p{i}(r) modifies r.g impl p{i}(r) {{ {body} }} ");
    }
    let run = |workers| {
        let engine = Engine::new(EngineOptions {
            workers,
            ..EngineOptions::default()
        })
        .expect("in-memory engine");
        let report = engine.check_source("unit", &src);
        (report, engine.contexts().metrics())
    };
    let (one, one_pool) = run(1);
    assert_eq!(one_pool.misses, 1, "one worker builds one context");
    let (four, four_pool) = run(4);
    assert!(four_pool.misses <= 4, "{four_pool:?}");
    assert_eq!(four.prover_calls, 12);
    assert_eq!(four.obligations.len(), one.obligations.len());
    for (a, b) in one.obligations.iter().zip(&four.obligations) {
        assert_eq!(a.proc_name, b.proc_name);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.verdict.is_verified(), "{}", a.proc_name);
        assert!(same_verdict(&a.verdict, &b.verdict), "{}", a.proc_name);
    }
}

/// The deepest program of each shape the parser accepts still checks on a
/// worker-sized 2 MiB stack, and one level deeper is a unit error rather
/// than a stack overflow.
#[test]
fn deepest_accepted_programs_check_on_a_worker_stack() {
    let unit = |body: String| {
        format!("group g field f in g proc p(r) modifies r.g impl p(r) {{ {body} }}")
    };
    let body = |shape: &str, n: usize| match shape {
        "parentheses" => format!("r.f := {}1{}", "(".repeat(n), ")".repeat(n)),
        "arithmetic" => format!("r.f := {}1{}", "1 + (".repeat(n), ")".repeat(n)),
        "field chain" => format!("r.f := r{}", ".f".repeat(n)),
        "sequence" => vec!["r.f := 1"; n].join(" ; "),
        _ => vec!["r.f := 1"; n].join(" [] "),
    };
    let worker = std::thread::Builder::new().stack_size(2 << 20);
    let run = move || {
        let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
        for shape in [
            "parentheses",
            "arithmetic",
            "field chain",
            "sequence",
            "choice",
        ] {
            // The deepest accepted size, by bisection on the parser alone.
            let (mut lo, mut hi) = (1, 2 * MAX_NESTING);
            while lo + 1 < hi {
                let mid = (lo + hi) / 2;
                match parse_program(&unit(body(shape, mid))) {
                    Ok(_) => lo = mid,
                    Err(_) => hi = mid,
                }
            }
            assert!(lo + 8 > MAX_NESTING, "{shape}: only {lo} levels accepted");
            let report = engine.check_source(shape, &unit(body(shape, lo)));
            let verdicts: Vec<_> = report
                .obligations
                .iter()
                .map(|o| o.verdict.label())
                .collect();
            assert_eq!(verdicts, ["verified"], "{shape} at {lo}");
            let deeper = engine.check_source(shape, &unit(body(shape, lo + 1)));
            assert_eq!(deeper.unit_errors.len(), 1, "{shape} at {}", lo + 1);
        }
    };
    worker
        .spawn(run)
        .expect("spawns")
        .join()
        .expect("no overflow");
}

/// A generated 200-procedure unit — a wide scope and a deep call DAG, the
/// shape of the benchmark's scaled units — in which every implementation
/// verifies.
fn generated_unit() -> BatchUnit {
    let config = UnannotatedConfig {
        groups: 8,
        fields: 24,
        procs: 200,
        keep_includes: true,
    };
    let generated = generate_unannotated_source(7, &config);
    BatchUnit {
        name: generated.name,
        source: generated.annotated,
    }
}

/// `source` with `assume k = k ;` inserted as the first command of the
/// implementation of `p<proc>` in a generated unit. The assumption is
/// true, but it enters the VC: only that obligation changes.
fn edit_body(source: &str, proc: usize, k: u64) -> String {
    let at = source
        .find(&format!("\nimpl p{proc}("))
        .expect("every generated procedure is implemented");
    let body = at + source[at..].find("{\n").expect("bodies open with a brace") + 2;
    format!(
        "{}  assume {k} = {k} ;\n{}",
        &source[..body],
        &source[body..]
    )
}

/// What the cache replays of an obligation: its fingerprint, outcome,
/// primary label (id, kind and detail; spans are not cached) and every
/// prover counter.
type Observed = (
    String,
    String,
    Option<Fingerprint>,
    &'static str,
    Option<(u32, ObligationKind, String)>,
    Option<Stats>,
);

fn observe(report: &BatchReport) -> Vec<Observed> {
    assert!(report.unit_errors.is_empty(), "{:?}", report.unit_errors);
    report
        .obligations
        .iter()
        .map(|o| {
            let primary = o
                .verdict
                .refutation()
                .and_then(|r| r.primary.as_ref())
                .map(|p| (p.id, p.kind, p.detail.clone()));
            (
                o.unit.clone(),
                o.proc_name.clone(),
                o.fingerprint,
                o.verdict.label(),
                primary,
                o.verdict.stats().cloned(),
            )
        })
        .collect()
}

/// One step of the early-cutoff walk.
enum Step {
    /// `assume k = k ;` at the top of a seeded generated implementation.
    Body,
    /// Replace `from` by `to` in the named unit.
    Replace(&'static str, &'static str, &'static str, &'static str),
    /// Move a group declaration to the top of `stack_module`, and the
    /// first generated implementation to the end of its unit.
    Reorder,
    /// Re-check under a larger budget, through a second engine sharing
    /// the store, the context pool and the cutoff map, as serve does.
    Budget,
}

/// Early cutoff is invisible: a resident engine that walks a seeded edit
/// sequence reports, after every step, exactly what a fresh engine
/// reports. Each step edits one kind of input a verdict depends on.
/// Debug builds additionally recompute the fingerprint of every cutoff
/// hit and assert that it agrees.
#[test]
fn early_cutoff_matches_a_fresh_engine() {
    use Step::{Body, Budget, Reorder, Replace};
    let steps = [
        Body,
        Replace(
            "value-only edit",
            "stack_module",
            "v.cnt := 0",
            "v.cnt := 7",
        ),
        Body,
        Replace(
            "a modifies clause",
            "stack_module",
            "proc vinit(v) modifies v.elems",
            "proc vinit(v)",
        ),
        Replace(
            "a reads clause",
            "example2",
            "proc twice(t) modifies t.g",
            "proc twice(t) modifies t.g reads t.g",
        ),
        Replace("an `in` clause", "example1", "field f\n", "field f in g\n"),
        Replace(
            "a `maps … into` clause",
            "example3",
            "field value in g",
            "field value in g\nfield other maps g into g",
        ),
        Replace(
            "a `maps elem … into` clause",
            "registry",
            "field listeners in rstate maps elem lstate into rstate",
            "field listeners in rstate maps elem lstate into rstate\n  \
             field spare in rstate maps elem lstate into rstate",
        ),
        Replace(
            "an invariant",
            "rational",
            "field den in value",
            "field den in value\ninvariant this.den != 0",
        ),
        Replace(
            "a module import",
            "modular_stack",
            "module vector_impl imports vector_interface {",
            "module vector_impl imports vector_interface, stack_interface {",
        ),
        Reorder,
        Replace(
            "an array access in another body",
            "stack_module",
            "v.cnt := v.cnt + 1 }",
            "v.cnt := v.cnt + 1 ; v.cnt[0] := 1 }",
        ),
        Budget,
        Body,
    ];

    let mut units = corpus_units();
    units.push(generated_unit());
    let resident = Engine::new(EngineOptions::default()).expect("in-memory engine");
    let mut larger = CheckOptions::default();
    larger.budget.max_instances += 1;

    // Fresh verdicts depend only on a unit's text and options: check each
    // distinct pair once, each time with a fresh engine.
    let mut fresh: HashMap<(String, bool), Vec<Observed>> = HashMap::new();
    let mut fresh_batch = |units: &[BatchUnit], budget: bool| -> Vec<Observed> {
        let check = if budget {
            larger.clone()
        } else {
            CheckOptions::default()
        };
        units
            .iter()
            .flat_map(|unit| {
                fresh
                    .entry((unit.source.clone(), budget))
                    .or_insert_with(|| {
                        let engine = Engine::new(EngineOptions {
                            check: check.clone(),
                            ..EngineOptions::default()
                        })
                        .expect("in-memory engine");
                        observe(&engine.check_source(&unit.name, &unit.source))
                    })
                    .clone()
            })
            .collect()
    };

    let cold = resident.check_batch(&units);
    assert_eq!(cold.cutoff_hits, 0, "nothing is remembered yet");
    assert_eq!(observe(&cold), fresh_batch(&units, false));

    let mut rng = StdRng::seed_from_u64(17);
    let generated = units.len() - 1;
    let mut by_proc_before: HashMap<(String, String), Option<Fingerprint>> = HashMap::new();
    for step in &steps {
        let (what, report, budget) = match *step {
            Body => {
                let proc = rng.gen_range(0..200usize);
                let k = rng.gen_range(1..1_000u64);
                units[generated].source = edit_body(&units[generated].source, proc, k);
                ("a body edit", resident.check_batch(&units), false)
            }
            Replace(what, unit, from, to) => {
                let unit = units
                    .iter_mut()
                    .find(|u| u.name == unit)
                    .expect("a corpus unit");
                assert!(unit.source.contains(from), "{what}: `{from}` not found");
                unit.source = unit.source.replacen(from, to, 1);
                (what, resident.check_batch(&units), false)
            }
            Reorder => {
                let stack = units
                    .iter_mut()
                    .find(|u| u.name == "stack_module")
                    .expect("a corpus unit");
                stack.source = format!(
                    "group contents\n{}",
                    stack.source.replacen("\ngroup contents\n", "\n", 1)
                );
                let source = &mut units[generated].source;
                let start = source.find("impl p0(").expect("p0 is implemented");
                let end = start + source[start..].find("\n}\n").expect("bodies close") + 3;
                let first: String = source.drain(start..end).collect();
                source.push_str(&first);
                (
                    "reordered declarations",
                    resident.check_batch(&units),
                    false,
                )
            }
            Budget => {
                let shared = Engine::with_store_and_contexts(
                    EngineOptions {
                        check: larger.clone(),
                        ..EngineOptions::default()
                    },
                    resident.store().clone(),
                    resident.contexts().clone(),
                    resident.cutoffs().clone(),
                );
                let report = shared.check_batch(&units);
                assert_eq!(report.cutoff_hits, 0, "a budget change changes every key");
                ("a budget change", report, true)
            }
        };
        let observed = observe(&report);
        let expected = fresh_batch(&units, budget);
        assert_eq!(observed.len(), expected.len(), "{what}");
        for (got, want) in observed.iter().zip(&expected) {
            assert_eq!(got, want, "after {what}: early cutoff diverged");
        }
        if !budget {
            assert!(report.cutoff_hits > 0, "{what}: no cutoff hits");
        }
        if what == "an array access in another body" {
            // `sinit`'s own text and scope are unchanged, but vgrow's array
            // access lifts the whole unit to the arrays level.
            let sinit = ("stack_module".to_string(), "sinit".to_string());
            let now = observed
                .iter()
                .find(|o| (&o.0, &o.1) == (&sinit.0, &sinit.1))
                .expect("sinit is checked");
            assert_ne!(by_proc_before[&sinit], now.2, "sinit kept its fingerprint");
        }
        by_proc_before = observed
            .iter()
            .map(|o| ((o.0.clone(), o.1.clone()), o.2))
            .collect();
    }
}

/// One step of the background-reuse walk: what it edits, in which unit,
/// and whether the unit keeps its scope background.
struct ScopeStep {
    what: &'static str,
    unit: &'static str,
    edit: fn(&str, &mut StdRng) -> String,
    keeps_background: bool,
}

/// Reusing a scope background across batches is invisible: a resident
/// engine that walks a seeded edit sequence reports, after every step,
/// exactly what a fresh engine reports, and an edit that leaves every
/// declaration outside implementation bodies (and the language level)
/// unchanged builds its checker around the very background the previous
/// batch built. Debug builds also rebuild the background on every memo
/// hit and assert that it agrees.
#[test]
fn background_reuse_matches_a_fresh_engine() {
    let generated_name = generated_unit().name;
    let steps = [
        ScopeStep {
            what: "a body edit",
            unit: "",
            edit: |source, rng| {
                edit_body(
                    source,
                    rng.gen_range(0..200usize),
                    rng.gen_range(1..1_000u64),
                )
            },
            keeps_background: true,
        },
        ScopeStep {
            what: "a value-only edit",
            unit: "stack_module",
            edit: |source, _| source.replacen("v.cnt := 0", "v.cnt := 7", 1),
            keeps_background: true,
        },
        ScopeStep {
            what: "an added `in` clause",
            unit: "example1",
            edit: |source, _| source.replacen("field f\n", "field f in g\n", 1),
            keeps_background: false,
        },
        ScopeStep {
            what: "an appended `group`",
            unit: "",
            edit: |source, _| format!("{source}\ngroup appended\n"),
            keeps_background: false,
        },
        ScopeStep {
            what: "a `maps … into` clause",
            unit: "example3",
            edit: |source, _| {
                source.replacen(
                    "field value in g",
                    "field value in g\nfield other maps g into g",
                    1,
                )
            },
            keeps_background: false,
        },
        ScopeStep {
            what: "a body that starts indexing an array",
            unit: "stack_module",
            edit: |source, _| {
                source.replacen(
                    "v.cnt := v.cnt + 1 }",
                    "v.cnt := v.cnt + 1 ; v.cnt[0] := 1 }",
                    1,
                )
            },
            keeps_background: false,
        },
        ScopeStep {
            what: "a second body edit",
            unit: "",
            edit: |source, rng| {
                edit_body(
                    source,
                    rng.gen_range(0..200usize),
                    rng.gen_range(1..1_000u64),
                )
            },
            keeps_background: true,
        },
    ];

    let mut units = corpus_units();
    units.push(generated_unit());
    let resident = Engine::new(EngineOptions::default()).expect("in-memory engine");
    let naive = CheckOptions {
        naive: true,
        ..CheckOptions::default()
    };
    let fresh = |units: &[BatchUnit], check: &CheckOptions| -> Vec<Observed> {
        let engine = Engine::new(EngineOptions {
            check: check.clone(),
            ..EngineOptions::default()
        })
        .expect("in-memory engine");
        observe(&engine.check_batch(units))
    };
    let background = |engine: &Engine, unit: &BatchUnit| {
        engine
            .checker(&unit.source)
            .expect("every unit analyses")
            .shared_background()
            .clone()
    };

    let cold = resident.check_batch(&units);
    assert_eq!(observe(&cold), fresh(&units, &CheckOptions::default()));
    let misses = resident.cutoffs().metrics().background_misses;
    assert_eq!(misses, units.len() as u64, "one background per unit");

    let mut rng = StdRng::seed_from_u64(29);
    for step in &steps {
        let name = if step.unit.is_empty() {
            generated_name.as_str()
        } else {
            step.unit
        };
        let at = units
            .iter()
            .position(|u| u.name == name)
            .expect("a unit of the walk");
        let before = background(&resident, &units[at]);
        let edited = (step.edit)(&units[at].source, &mut rng);
        assert_ne!(edited, units[at].source, "{}: the edit applies", step.what);
        units[at].source = edited;
        let metrics = resident.cutoffs().metrics();
        let report = resident.check_batch(&units);
        assert_eq!(
            observe(&report),
            fresh(&units, &CheckOptions::default()),
            "after {}: background reuse diverged",
            step.what
        );
        let after = resident.cutoffs().metrics();
        let unchanged = units.len() as u64 - u64::from(!step.keeps_background);
        assert_eq!(
            after.background_hits - metrics.background_hits,
            unchanged,
            "{}: every unit with an unchanged scope reuses its background",
            step.what
        );
        let now = background(&resident, &units[at]);
        assert_eq!(
            Arc::ptr_eq(&before, &now),
            step.keeps_background,
            "{}: the edited unit's background",
            step.what
        );
        if !step.keeps_background {
            assert_ne!(before.digest(), now.digest(), "{}", step.what);
        }
    }

    // The naive checker, through a second engine sharing the store, the
    // context pool and the map, as serve does: its backgrounds are its own.
    let naive_engine = Engine::with_store_and_contexts(
        EngineOptions {
            check: naive.clone(),
            ..EngineOptions::default()
        },
        resident.store().clone(),
        resident.contexts().clone(),
        resident.cutoffs().clone(),
    );
    let hits = resident.cutoffs().metrics().background_hits;
    let report = naive_engine.check_batch(&units);
    assert_eq!(
        observe(&report),
        fresh(&units, &naive),
        "naive: background reuse diverged"
    );
    assert_eq!(
        resident.cutoffs().metrics().background_hits,
        hits,
        "naive checkers never share a restricted background"
    );
    let generated = units.last().expect("the generated unit");
    assert_ne!(
        background(&naive_engine, generated).digest(),
        background(&resident, generated).digest()
    );
    let again = naive_engine.check_batch(&units);
    assert_eq!(observe(&again), observe(&report));
}

/// A one-implementation body edit in a 200-implementation unit is one
/// prover call and 199 cutoff hits on a resident engine; a fresh engine
/// has nothing to cut off.
#[test]
fn early_cutoff_serves_every_unchanged_implementation() {
    let unit = generated_unit();
    let edited = edit_body(&unit.source, 57, 3);
    let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
    // Identical obligations within a unit may already share one proof.
    let cold = engine.check_source(&unit.name, &unit.source);
    assert_eq!(cold.cutoff_hits, 0);
    assert_eq!(cold.prover_calls + cold.cache_hits, 200);
    let warm = engine.check_source(&unit.name, &edited);
    assert_eq!(warm.cutoff_hits, 199);
    assert_eq!((warm.cache_hits, warm.prover_calls), (199, 1));
    let fresh = Engine::new(EngineOptions::default())
        .expect("in-memory engine")
        .check_source(&unit.name, &edited);
    assert_eq!(fresh.cutoff_hits, 0);
    assert_eq!(fresh.prover_calls + fresh.cache_hits, 200);
}

/// Under `diagnose`, a remembered key whose cached refutation carries no
/// diagnosis is proved again, exactly as a fingerprint hit would be.
#[test]
fn early_cutoff_reproves_refutations_that_lack_a_diagnosis() {
    let src = "group g
         field f in g
         field h
         proc p(r) modifies r.g
         impl p(r) { r.f := 1 }
         proc q(r) modifies r.g
         impl q(r) { r.h := 2 }";
    let plain = Engine::new(EngineOptions::default()).expect("in-memory engine");
    let cold = plain.check_source("unit", src);
    assert_eq!(cold.tally(), (1, 1, 0), "q writes outside its license");
    let explaining = Engine::with_store_and_contexts(
        EngineOptions {
            diagnose: true,
            ..EngineOptions::default()
        },
        plain.store().clone(),
        plain.contexts().clone(),
        plain.cutoffs().clone(),
    );
    let report = explaining.check_source("unit", src);
    assert_eq!((report.cutoff_hits, report.prover_calls), (1, 1));
    let q = &report.obligations[1];
    assert_eq!(q.proc_name, "q");
    assert!(
        !q.cache_hit && q.diagnosis.is_some(),
        "q is proved and diagnosed"
    );
    // Now the cached refutation carries its diagnosis, so the key serves.
    let again = explaining.check_source("unit", src);
    assert_eq!((again.cutoff_hits, again.prover_calls), (2, 0));
    assert!(again.obligations[1].diagnosis.is_some());
}

/// What a report says about each obligation's positions: verdict,
/// blamed label (span included), refutation labels and diagnosis.
type Anchored = (
    String,
    &'static str,
    Option<ObligationLabel>,
    Option<Vec<u32>>,
    Option<Diagnosis>,
);

fn anchored(report: &BatchReport) -> Vec<Anchored> {
    report
        .obligations
        .iter()
        .map(|o| {
            let refutation = o.verdict.refutation();
            (
                o.proc_name.clone(),
                o.verdict.label(),
                refutation.and_then(|r| r.primary.clone()),
                refutation.map(|r| r.labels.clone()),
                o.diagnosis.clone(),
            )
        })
        .collect()
}

/// A refutation served from the cache is anchored in the text being
/// checked, not in the text it was first proved against. Prepending blank
/// lines keeps every cutoff key and fingerprint; afterwards the cutoff
/// path of a resident engine and the store path of a second engine over
/// the same cache directory both report what a fresh engine reports,
/// diagnosis included.
#[test]
fn cached_refutations_follow_position_only_edits() {
    let source = oolong::corpus::by_name("section31_bad_call")
        .expect("corpus program")
        .source;
    let shifted = format!("\n\n\n{source}");
    let dir = std::env::temp_dir().join(format!("oolong-anchor-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let explaining = |cache_dir| EngineOptions {
        diagnose: true,
        cache_dir,
        ..EngineOptions::default()
    };
    let resident = Engine::new(explaining(Some(dir.clone()))).expect("cache dir opens");
    let cold = resident.check_source("unit", source);
    assert_eq!(cold.tally(), (1, 1, 0), "bad_caller is refuted");
    let cutoff = resident.check_source("unit", &shifted);
    assert_eq!((cutoff.cutoff_hits, cutoff.prover_calls), (2, 0));
    let store = Engine::new(explaining(Some(dir.clone())))
        .expect("cache dir opens")
        .check_source("unit", &shifted);
    assert_eq!(
        (store.cache_hits, store.cutoff_hits, store.prover_calls),
        (2, 0, 0)
    );
    let fresh = Engine::new(explaining(None))
        .expect("in-memory engine")
        .check_source("unit", &shifted);
    assert_eq!(fresh.prover_calls, 2);
    assert_ne!(
        anchored(&cold),
        anchored(&fresh),
        "the edit moves positions"
    );
    assert_eq!(anchored(&cutoff), anchored(&fresh), "cutoff path");
    assert_eq!(anchored(&store), anchored(&fresh), "store path");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cutoff map is bounded by the memory tier's capacity, and a
/// resident engine with a small map still serves correct verdicts.
#[test]
fn cutoff_map_stays_within_the_memory_tier_bound() {
    let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
    assert_eq!(
        engine.cutoffs().capacity(),
        engine.store().metrics().mem_capacity
    );
    let capacity = 16;
    let small = Engine::with_store_and_contexts(
        EngineOptions::default(),
        Arc::new(MemoryTier::with_capacity(DEFAULT_MEMORY_CAPACITY)),
        Arc::new(ContextPool::with_capacity(DEFAULT_CONTEXT_CAPACITY)),
        Arc::new(CutoffMap::with_capacity(capacity)),
    );
    let unit = generated_unit();
    for k in 1..=3 {
        let report = small.check_source(&unit.name, &edit_body(&unit.source, 0, k));
        assert!(report.cutoff_hits <= capacity);
        assert_eq!(report.prover_calls + report.cache_hits, 200);
        assert!(
            small.cutoffs().len() <= capacity,
            "{}",
            small.cutoffs().len()
        );
    }
}

/// Telemetry rows are the same wherever a verdict comes from. For every
/// obligation of the paper corpus and of a generated 200-procedure unit,
/// a fresh proof, a memory-tier hit and a disk-tier hit (read by a new
/// engine over the same cache directory) give equal `Stats` and
/// byte-identical `stats_to_json`: all-zero rows, trigger text and
/// binding chains included.
#[test]
fn telemetry_rows_agree_across_proofs_and_both_cache_tiers() {
    let mut units = corpus_units();
    units.push(generated_unit());
    let dir = std::env::temp_dir().join(format!("oolong-telemetry-tiers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // One worker, so obligations sharing a fingerprint hit in order.
    let options = || EngineOptions {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    };
    let resident = Engine::new(options()).expect("cache dir opens");
    let fresh = resident.check_batch(&units);
    let memory = resident.check_batch(&units);
    let reader = Engine::new(options()).expect("cache dir opens");
    let disk = reader.check_batch(&units);
    assert_eq!((memory.prover_calls, disk.prover_calls), (0, 0));
    assert!(reader.store().metrics().disk_hits > 0);
    assert_eq!(fresh.obligations.len(), disk.obligations.len());
    let (mut proofs, mut zero_rows, mut chains) = (0, 0, 0);
    for ((f, m), d) in fresh
        .obligations
        .iter()
        .zip(&memory.obligations)
        .zip(&disk.obligations)
    {
        let Some(stats) = f.verdict.stats() else {
            continue;
        };
        proofs += 1;
        let rendered = oolong::engine::stats_to_json(stats).render();
        for (tier, hit) in [("memory", m), ("disk", d)] {
            assert!(hit.cache_hit, "{tier} {}/{}", hit.unit, hit.proc_name);
            let replayed = hit.verdict.stats().expect("cached verdicts carry stats");
            assert_eq!(replayed, stats, "{tier} {}/{}", hit.unit, hit.proc_name);
            assert_eq!(
                oolong::engine::stats_to_json(replayed).render(),
                rendered,
                "{tier} {}/{}",
                hit.unit,
                hit.proc_name
            );
        }
        zero_rows += stats
            .per_quant
            .iter()
            .filter(|q| q.matches == 0 && q.instances == 0 && q.deferred == 0)
            .count();
        chains += stats
            .per_quant
            .iter()
            .filter(|q| !q.chain().is_empty())
            .count();
    }
    assert!(proofs > 200, "{proofs} proofs");
    assert!(
        zero_rows > 0 && chains > 0,
        "{zero_rows} zero rows, {chains} chains"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The verified verdicts of a generated unit of `procs` procedures, and
/// the engine that checked it.
fn verified_entries(seed: u64, procs: usize) -> (Engine, BatchReport, Vec<CachedVerdict>) {
    let config = UnannotatedConfig {
        groups: 8,
        fields: 24,
        procs,
        keep_includes: true,
    };
    let unit = generate_unannotated_source(seed, &config);
    let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
    let report = engine.check_source(&unit.name, &unit.annotated);
    let entries = report
        .obligations
        .iter()
        .filter(|o| matches!(o.verdict, Verdict::Verified(_)))
        .map(|o| {
            CachedVerdict::from_verdict(&o.proc_name, &o.verdict, None)
                .expect("verified verdicts are cached")
        })
        .collect();
    (engine, report, entries)
}

/// A resident verdict holds counters, not rendered rows: the median
/// `heap_bytes` of the verified verdicts of a scaled unit (seed 44, the
/// first unit of the benchmark's seed 11) stays small, and the memory
/// tier's running total is the sum over its entries plus each context
/// base they share, once.
#[test]
fn resident_verdicts_hold_counters_not_rendered_rows() {
    let (engine, report, entries) = verified_entries(44, 200);
    let mut verified: Vec<usize> = entries.iter().map(CachedVerdict::heap_bytes).collect();
    assert_eq!(verified.len(), 200);
    verified.sort_unstable();
    let median = verified[verified.len() / 2];
    assert!(median <= 7 * 1024, "median verdict holds {median} bytes");
    // Obligations that share a fingerprint share one entry.
    let fingerprints: std::collections::HashSet<_> = report
        .obligations
        .iter()
        .filter_map(|o| o.fingerprint)
        .collect();
    let mut bases = HashMap::new();
    let mut total = 0;
    for &fp in &fingerprints {
        let entry = engine.store().get(fp).expect("resident");
        total += entry.heap_bytes();
        bases.extend(entry.shared_base());
    }
    assert!(!bases.is_empty() && bases.len() < fingerprints.len());
    total += bases.values().sum::<usize>();
    assert_eq!(engine.store().metrics().mem_bytes, total);
}

/// The memory tier counts a context base once however many entries share
/// it, keeps counting it while any entry holds it, and returns to zero
/// once every entry that held one is evicted.
#[test]
fn memory_tier_counts_each_shared_base_once() {
    let (_, _, entries) = verified_entries(45, 24);
    let tier = MemoryTier::with_capacity(entries.len());
    let (mut own, mut bases) = (0, HashMap::new());
    for (i, entry) in entries.iter().enumerate() {
        let entry = entry.clone();
        own += entry.heap_bytes();
        let (key, bytes) = entry.shared_base().expect("a fresh proof shares its base");
        assert!(bytes > 0);
        bases.insert(key, bytes);
        tier.put(Fingerprint(i as u128), entry);
    }
    assert!(bases.len() < entries.len(), "{} bases", bases.len());
    let shared: usize = bases.values().sum();
    assert_eq!(tier.metrics().mem_bytes, own + shared);
    // Replacing an entry with itself moves nothing.
    tier.put(Fingerprint(0), entries[0].clone());
    assert_eq!(tier.metrics().mem_bytes, own + shared);
    // An entry decoded from disk shares no base; entries like it push
    // every other entry out.
    let dir = std::env::temp_dir().join(format!("oolong-shared-bases-{}", std::process::id()));
    let disk = DiskTier::at_dir(&dir).expect("cache dir opens");
    disk.put(Fingerprint(0), entries[0].clone());
    let decoded = disk.get(Fingerprint(0)).expect("disk hit");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(decoded.shared_base(), None);
    let mut decoded_bytes = 0;
    for i in 0..entries.len() {
        let entry = decoded.clone();
        decoded_bytes += entry.heap_bytes();
        tier.put(Fingerprint(1_000 + i as u128), entry);
    }
    let m = tier.metrics();
    assert_eq!(m.evictions, entries.len() as u64);
    assert_eq!(m.mem_bytes, decoded_bytes);
}

/// The pinned event log: `tests/golden/batch_events.jsonl`.
const EVENTS_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/batch_events.jsonl"
);

/// Replaces the number after every `"millis":` with `0`: wall-clock
/// timings are the only part of an event log that varies between runs.
fn mask_millis(log: &str) -> String {
    const KEY: &str = "\"millis\":";
    let mut out = String::with_capacity(log.len());
    let mut rest = log;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        out.push('0');
        rest = rest[at + KEY.len()..].trim_start_matches(|c: char| {
            c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')
        });
    }
    out.push_str(rest);
    out
}

/// The event log of a cold batch and of the same batch again on the same
/// engine (warm), byte for byte against the golden file, timings masked.
/// The batch covers every event kind: a refuted corpus program with
/// diagnosis, a verified one, one that exhausts its budget, a unit that
/// does not parse, a restriction violation (in `section30_full`) and a
/// translation error; the warm run adds the cache hits.
/// `UPDATE_GOLDEN=1 cargo test --test engine event_log_is_byte_stable`
/// rewrites the file after a deliberate change.
#[test]
fn event_log_is_byte_stable() {
    let corpus = |name: &str| BatchUnit {
        name: format!("corpus:{name}"),
        source: oolong::corpus::by_name(name)
            .expect("corpus program")
            .source
            .to_string(),
    };
    let units = vec![
        corpus("section31_bad_call"),
        corpus("section30_full"),
        corpus("example3"),
        BatchUnit {
            name: "unparsable".to_string(),
            source: "group g field f in".to_string(),
        },
        BatchUnit {
            name: "untranslatable".to_string(),
            source: "field f
                     proc p(r) modifies r.f
                     impl p(r) { r.f := (1 = 1) }"
                .to_string(),
        },
    ];
    let mut options = CheckOptions::default();
    options.budget.max_instances = 100;
    let engine = Engine::new(EngineOptions {
        check: options,
        workers: 1,
        cache_dir: None,
        diagnose: true,
    })
    .expect("in-memory engine");
    let cold = engine.check_batch(&units).events_jsonl();
    let warm = engine.check_batch(&units).events_jsonl();
    let actual = mask_millis(&format!("{cold}{warm}"));
    for kind in [
        "obligation_started",
        "cache_hit",
        "prover_profile",
        "verified",
        "refuted",
        "fuel_exhausted",
        "restriction_violation",
        "translation_error",
        "unit_error",
        "batch_summary",
    ] {
        assert!(count_events(&actual, kind) > 0, "no `{kind}` event");
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(EVENTS_GOLDEN, &actual)
            .unwrap_or_else(|e| panic!("cannot bless `{EVENTS_GOLDEN}`: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(EVENTS_GOLDEN)
        .unwrap_or_else(|e| panic!("cannot read `{EVENTS_GOLDEN}`: {e}"));
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or(actual.lines().count().min(golden.lines().count()));
        panic!(
            "event log drift at line {first}:\n  actual: {}\n  golden: {}\n\
             re-bless with UPDATE_GOLDEN=1 only for a deliberate, stated change",
            actual.lines().nth(first).unwrap_or("<none>"),
            golden.lines().nth(first).unwrap_or("<none>"),
        );
    }
}
