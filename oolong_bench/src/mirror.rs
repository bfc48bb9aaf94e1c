//! The traced mirror of `Engine::check_batch`.
//!
//! The engine has no spans inside it, so a traced run re-enacts its batch
//! path from the same public calls, in the same order, on the same number
//! of workers, and records a span around each call: parse, scope
//! analysis, the pivot-uniqueness check, VC generation, slicing,
//! fingerprinting, the store lookup, the context-pool checkout and slot
//! lock, the context build, the proof, the store insert, and the event
//! records. [`fidelity`] then proves the mirror did the engine's work: the
//! verdicts, fingerprints, and prover counters must match the real
//! engine's bit for bit, or the run fails.

use crate::measure::median;
use crate::trace::{self_times, Recorder, Span};
use datagroups::{CheckOptions, Checker, Verdict};
use oolong_engine::{
    context_key, fingerprint_vc, BatchUnit, CachedVerdict, ContextPool, Event, Fingerprint,
    ObligationReport, TieredStore, VerdictStore, DEFAULT_CONTEXT_CAPACITY, DEFAULT_MEMORY_CAPACITY,
};
use oolong_sema::ImplId;
use oolong_syntax::parse_program;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Root spans: a thread's busy intervals, not a layer.
const ROOTS: [&str; 3] = ["engine.frontend", "engine.worker", "engine.report"];

/// One obligation as the mirror processed it.
#[derive(Debug)]
pub struct Traced {
    pub report: ObligationReport,
    pub prover_call: bool,
    /// Whether the context slot already held a built context.
    pub context_warm: bool,
    pub hypotheses: usize,
    pub background: usize,
    pub kept: usize,
}

/// One task's result: the obligation and its events.
type TaskOutcome = (Traced, Vec<Event>);

/// One traced batch.
#[derive(Debug)]
pub struct MirrorPass {
    pub obligations: Vec<Traced>,
    pub unit_errors: usize,
    pub wall_ms: f64,
    /// Spans per thread: the calling thread first, then each worker.
    pub threads: Vec<(String, Vec<Span>)>,
}

/// A resident mirror engine: its own verdict store and context pool, like
/// one [`oolong_engine::Engine`].
#[derive(Debug)]
pub struct Mirror {
    options: CheckOptions,
    workers: usize,
    store: TieredStore,
    contexts: ContextPool,
}

impl Mirror {
    /// A mirror of `Engine::new` over an in-memory store.
    pub fn new(workers: usize) -> Mirror {
        Mirror {
            options: CheckOptions::default(),
            workers,
            store: TieredStore::in_memory(DEFAULT_MEMORY_CAPACITY),
            contexts: ContextPool::with_capacity(DEFAULT_CONTEXT_CAPACITY),
        }
    }

    /// Mirrors `Engine::check_batch`, tagging every span with `pass`.
    pub fn check_batch(&self, units: &[BatchUnit], pass: u32, epoch: Instant) -> MirrorPass {
        let wall = Instant::now();
        let mut main = Recorder::new(epoch, pass);
        let frontend = main.begin("engine.frontend");
        let mut unit_errors = 0;
        let checkers: Vec<Option<Checker>> = units
            .iter()
            .map(|unit| {
                let checker = main
                    .span("syntax.parse", || parse_program(&unit.source))
                    .ok()
                    .and_then(|program| {
                        main.span("sema.analyze", || {
                            Checker::new(&program, self.options.clone())
                        })
                        .ok()
                    });
                unit_errors += usize::from(checker.is_none());
                checker
            })
            .collect();
        let tasks: Vec<(usize, ImplId)> = checkers
            .iter()
            .enumerate()
            .filter_map(|(u, c)| c.as_ref().map(|c| (u, c)))
            .flat_map(|(u, c)| c.scope().impls().map(move |(id, _)| (u, id)))
            .collect();
        main.end(frontend);

        let mut threads = Vec::new();
        let outcomes: Vec<TaskOutcome> = if self.workers <= 1 || tasks.len() <= 1 {
            let worker = main.begin("engine.worker");
            let out = tasks
                .iter()
                .enumerate()
                .map(|(seq, &(u, id))| {
                    let checker = checkers[u].as_ref().expect("tasks come from checkers");
                    self.task(&mut main, seq, &units[u], checker, id)
                })
                .collect();
            main.end(worker);
            out
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<TaskOutcome>>> =
                tasks.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.workers.min(tasks.len()))
                    .map(|_| {
                        scope.spawn(|| {
                            let mut rec = Recorder::new(epoch, pass);
                            let worker = rec.begin("engine.worker");
                            loop {
                                let seq = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&(u, id)) = tasks.get(seq) else {
                                    break;
                                };
                                let checker =
                                    checkers[u].as_ref().expect("tasks come from checkers");
                                let outcome = self.task(&mut rec, seq, &units[u], checker, id);
                                *slots[seq]
                                    .lock()
                                    .expect("no panics while holding slot lock") = Some(outcome);
                            }
                            rec.end(worker);
                            rec.into_spans()
                        })
                    })
                    .collect();
                for (i, handle) in handles.into_iter().enumerate() {
                    threads.push((
                        format!("worker {i}"),
                        handle.join().expect("mirror worker panicked"),
                    ));
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("worker panicked")
                        .expect("every slot filled before workers exit")
                })
                .collect()
        };

        // The engine's report assembly: events in batch order, then the
        // summary.
        let report = main.begin("engine.report");
        let mut events = Vec::new();
        let mut obligations = Vec::with_capacity(outcomes.len());
        let (mut cache_hits, mut prover_calls) = (0, 0);
        for (traced, obligation_events) in outcomes {
            cache_hits += usize::from(traced.report.cache_hit);
            prover_calls += usize::from(traced.prover_call);
            events.extend(obligation_events);
            obligations.push(traced);
        }
        events.push(Event::BatchSummary {
            obligations: obligations.len(),
            cache_hits,
            prover_calls,
            tally: tally(obligations.iter().map(|t| &t.report.verdict)),
            millis: wall.elapsed().as_secs_f64() * 1_000.0,
        });
        std::hint::black_box(&events);
        main.end(report);
        threads.insert(0, ("batch".to_string(), main.into_spans()));
        MirrorPass {
            obligations,
            unit_errors,
            wall_ms: wall.elapsed().as_secs_f64() * 1_000.0,
            threads,
        }
    }

    /// Mirrors `Engine::process_task` with diagnosis off.
    fn task(
        &self,
        rec: &mut Recorder,
        seq: usize,
        unit: &BatchUnit,
        checker: &Checker,
        impl_id: ImplId,
    ) -> TaskOutcome {
        let task = rec.begin("engine.task");
        let scope = checker.scope();
        let proc_name = scope.proc_info(scope.impl_info(impl_id).proc).name.clone();
        let start = Instant::now();
        let started = |fingerprint: Option<Fingerprint>| Event::ObligationStarted {
            seq,
            unit: unit.name.clone(),
            proc: proc_name.clone(),
            fingerprint,
        };
        let finish = |verdict: Verdict, fingerprint, cache_hit, millis| ObligationReport {
            unit: unit.name.clone(),
            proc_name: proc_name.clone(),
            fingerprint,
            verdict,
            cache_hit,
            millis,
            diagnosis: None,
        };
        let traced = |report, prover_call, context_warm, sizes: (usize, usize, usize)| Traced {
            report,
            prover_call,
            context_warm,
            hypotheses: sizes.0,
            background: sizes.1,
            kept: sizes.2,
        };

        let violations = rec.span("core.restrict", || checker.restriction_violations(impl_id));
        if !violations.is_empty() {
            let events = rec.span("engine.events", || {
                let rendered = violations.iter().map(|d| d.to_string()).collect();
                vec![
                    started(None),
                    Event::RestrictionViolation {
                        seq,
                        violations: rendered,
                    },
                ]
            });
            let report = finish(
                Verdict::RestrictionViolation(violations),
                None,
                false,
                start.elapsed().as_secs_f64() * 1_000.0,
            );
            rec.end(task);
            return (traced(report, false, false, (0, 0, 0)), events);
        }

        let vc = match rec.span("core.vcgen", || checker.vc(impl_id)) {
            Ok(vc) => vc,
            Err(diagnostic) => {
                let events = vec![
                    started(None),
                    Event::TranslationError {
                        seq,
                        message: diagnostic.to_string(),
                    },
                ];
                let millis = start.elapsed().as_secs_f64() * 1_000.0;
                let report = finish(Verdict::TranslationError(diagnostic), None, false, millis);
                rec.end(task);
                return (traced(report, false, false, (0, 0, 0)), events);
            }
        };
        let (slice, phases) = rec.span("core.slice", || {
            let slice = checker.background_slice(&vc);
            let phases = checker.sliced_phases(&slice);
            (slice, phases)
        });
        let sizes = (
            vc.hypotheses.len(),
            vc.background_hyps,
            slice.keep.iter().filter(|&&k| k).count(),
        );
        let budget = &checker.options().budget;
        let fingerprint = rec.span("engine.fingerprint", || {
            fingerprint_vc(&vc, budget, &slice.keep, &phases)
        });
        if let Some(hit) = rec.span("engine.store_get", || self.store.get(fingerprint)) {
            let events = rec.span("engine.events", || {
                vec![
                    started(Some(fingerprint)),
                    Event::CacheHit {
                        seq,
                        outcome: hit.outcome.as_str(),
                        stats: hit.stats.clone(),
                    },
                    Event::ProverProfile {
                        seq,
                        cached: true,
                        stats: hit.stats.clone(),
                    },
                ]
            });
            let millis = start.elapsed().as_secs_f64() * 1_000.0;
            let report = finish(hit.to_verdict(), Some(fingerprint), true, millis);
            rec.end(task);
            return (traced(report, false, false, sizes), events);
        }

        let key = rec.span("engine.context_key", || {
            let background = checker.sliced_background(&vc, &slice);
            context_key(&background, &phases, budget, checker.options().strategy)
        });
        let wait = rec.begin("engine.context_wait");
        let slot = self.contexts.checkout(key);
        let mut guard = slot.lock().expect("context slot lock poisoned");
        rec.end(wait);
        let context_warm = guard.is_some();
        let build = rec.begin("prover.context");
        let ctx = guard.get_or_insert_with(|| checker.context_for_slice(&vc, &slice));
        rec.end(build);
        let verdict = rec.span("prover.prove", || {
            checker.verdict_for_vc_in(ctx, &vc, slice.dropped())
        });
        drop(guard);
        let millis = start.elapsed().as_secs_f64() * 1_000.0;
        rec.span("engine.store_put", || {
            if let Some(entry) = CachedVerdict::from_verdict(&proc_name, &verdict, None) {
                self.store.put(fingerprint, entry);
            }
        });
        let events = rec.span("engine.events", || {
            let stats = verdict
                .stats()
                .cloned()
                .expect("prover verdicts carry stats");
            let terminal = match &verdict {
                Verdict::Verified(_) => Event::Verified {
                    seq,
                    millis,
                    stats: stats.clone(),
                },
                Verdict::NotVerified(_, refutation) => Event::Refuted {
                    seq,
                    millis,
                    stats: stats.clone(),
                    open_branch: refutation.open_branch.clone(),
                    labels: refutation.labels.clone(),
                    primary: refutation.primary.clone(),
                    diagnosis: None,
                },
                _ => Event::FuelExhausted {
                    seq,
                    millis,
                    stats: stats.clone(),
                },
            };
            vec![
                started(Some(fingerprint)),
                terminal,
                Event::ProverProfile {
                    seq,
                    cached: false,
                    stats,
                },
            ]
        });
        let report = finish(verdict, Some(fingerprint), false, millis);
        rec.end(task);
        (traced(report, true, context_warm, sizes), events)
    }
}

/// `(verified, rejected, unknown)`, as `BatchReport::tally` counts.
fn tally<'a>(verdicts: impl Iterator<Item = &'a Verdict>) -> (usize, usize, usize) {
    let mut tally = (0, 0, 0);
    for verdict in verdicts {
        match verdict {
            Verdict::Verified(_) => tally.0 += 1,
            Verdict::Unknown(_) => tally.2 += 1,
            _ => tally.1 += 1,
        }
    }
    tally
}

/// The differences between the engine's obligations and the mirror's:
/// order, unit, procedure, fingerprint, verdict label, blamed label, and
/// the complete prover counters. Which of two identical obligations hits
/// the cache depends on worker timing in both runs, so hit flags are not
/// compared; a hit replays the stats of the proof that filled it.
pub fn fidelity(engine: &[ObligationReport], mirror: &[Traced]) -> Vec<String> {
    let mut diffs = Vec::new();
    if engine.len() != mirror.len() {
        diffs.push(format!(
            "engine checked {} obligations, mirror {}",
            engine.len(),
            mirror.len()
        ));
    }
    for (e, m) in engine.iter().zip(mirror.iter().map(|t| &t.report)) {
        let primary = |o: &ObligationReport| {
            o.verdict
                .refutation()
                .and_then(|r| r.primary.as_ref())
                .map(|l| (l.id, l.kind))
        };
        let same = e.unit == m.unit
            && e.proc_name == m.proc_name
            && e.fingerprint == m.fingerprint
            && e.verdict.label() == m.verdict.label()
            && primary(e) == primary(m)
            && e.verdict.stats() == m.verdict.stats();
        if !same {
            diffs.push(format!(
                "{}::{}: engine {} {:?}, mirror {} {:?}",
                e.unit,
                e.proc_name,
                e.verdict.label(),
                e.fingerprint,
                m.verdict.label(),
                m.fingerprint
            ));
        }
    }
    diffs
}

/// Per-layer results of traced passes: each pass's self time per span
/// name, prover counters, and the numerators and denominators of the
/// layer ratios.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub passes: u32,
    /// Per pass, the self time of every span name that occurred.
    pub self_ms: Vec<BTreeMap<&'static str, f64>>,
    /// Time the threads were busy: the root spans' durations.
    pub busy_ms: f64,
    /// The longest single proof of each pass.
    pub prove_max_ms: Vec<f64>,
    pub instances: u64,
    pub presat_instances: u64,
    pub trigger_matches: u64,
    pub branches: u64,
    pub unknown: u64,
    pub hypotheses: u64,
    pub background: u64,
    pub kept: u64,
    pub lookups: u64,
    pub hits: u64,
    pub prover_calls: u64,
    pub warm_contexts: u64,
}

impl Layers {
    /// Adds one traced pass, dividing its times by the machine's
    /// `slowdown` while it ran (see `calibrate`).
    pub fn add(&mut self, pass: &MirrorPass, slowdown: f64) {
        self.passes += 1;
        let mut prove_max_ms: f64 = 0.0;
        let mut self_ms = BTreeMap::new();
        for (_, spans) in &pass.threads {
            for (name, ms) in self_times(spans, |s| !ROOTS.contains(&s.name)) {
                *self_ms.entry(name).or_insert(0.0) += ms / slowdown;
            }
            for span in spans {
                let ms = span.duration_ns() as f64 / 1e6 / slowdown;
                if ROOTS.contains(&span.name) {
                    self.busy_ms += ms;
                }
                if span.name == "prover.prove" {
                    prove_max_ms = prove_max_ms.max(ms);
                }
            }
        }
        self.prove_max_ms.push(prove_max_ms);
        self.self_ms.push(self_ms);
        for t in &pass.obligations {
            self.hypotheses += t.hypotheses as u64;
            self.background += t.background as u64;
            self.kept += t.kept as u64;
            if t.report.fingerprint.is_some() {
                self.lookups += 1;
                self.hits += u64::from(t.report.cache_hit);
            }
            if !t.prover_call {
                continue;
            }
            self.prover_calls += 1;
            self.warm_contexts += u64::from(t.context_warm);
            if let Some(stats) = t.report.verdict.stats() {
                self.instances += stats.instances as u64;
                self.trigger_matches += stats.trigger_matches;
                self.branches += stats.branches;
                self.presat_instances += stats
                    .per_quant
                    .iter()
                    .map(|q| q.presat_instances)
                    .sum::<u64>();
            }
            self.unknown += u64::from(matches!(t.report.verdict, Verdict::Unknown(_)));
        }
    }

    /// The median over passes of one span name's self time per pass: a
    /// slow phase of the machine during a few passes moves it less than a
    /// mean.
    pub fn ms(&self, name: &str) -> f64 {
        let per_pass: Vec<f64> = self
            .self_ms
            .iter()
            .map(|pass| pass.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&per_pass)
    }

    /// Mean per pass of a counter.
    pub fn per_pass(&self, count: u64) -> f64 {
        count as f64 / f64::from(self.passes.max(1))
    }

    /// Share of busy thread time that layer spans account for.
    pub fn coverage(&self) -> f64 {
        let layers: f64 = self.self_ms.iter().flat_map(|pass| pass.values()).sum();
        layers / self.busy_ms.max(f64::MIN_POSITIVE)
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
