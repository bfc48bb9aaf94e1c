//! The batch scheduler: fans proof obligations across worker threads,
//! interposing the verdict cache in front of every prover call.
//!
//! A batch is a list of [`BatchUnit`]s (named sources). Each unit is
//! parsed and scope-analysed once; every implementation in a well-formed
//! unit becomes one obligation. Obligations are independent (the paper's
//! modular-soundness result), so they are processed by a fixed-size worker
//! pool pulling from a shared index; every proof runs in a warm scope
//! context from the [`ContextPool`]. An obligation whose cutoff key
//! ([`crate::cutoff`]) is remembered, and whose fingerprint is still
//! cached, is served without generating its VC at all, and a unit whose
//! declarations outside implementation bodies did not change is checked
//! against the scope background an earlier batch built. This
//! is the only checking path: `oolong check` (module by module too),
//! `batch`, `explain`, `stats` and `serve` all run through it, as do the
//! callers that hold a parsed program ([`Engine::check_program`]).
//! Each obligation's result is one [`ObligationReport`]; results are
//! reassembled in obligation order, so a batch report is deterministic
//! regardless of thread interleaving. The event log is derived from the
//! finished report ([`BatchReport::events`]) by the output edges that
//! read it.

use crate::cache::{stats_scalar_members, CachedOutcome, CachedVerdict};
use crate::contexts::{context_key, ContextPool, DEFAULT_CONTEXT_CAPACITY};
use crate::cutoff::{cutoff_keys, CutoffMap};
use crate::diagjson::{attribution_members, diagnosis_to_json};
use crate::fingerprint::{fingerprint_vc, Fingerprint};
use crate::json::Json;
use crate::store::{TieredStore, VerdictStore, DEFAULT_MEMORY_CAPACITY};
use datagroups::{BackgroundSlice, CheckOptions, Checker, Vc, Verdict};
use oolong_diagnose::{diagnose_refutation, diagnose_restriction, Diagnosis};
use oolong_logic::Phase;
use oolong_sema::{ImplId, Scope};
use oolong_syntax::{parse_program, Decl, Diagnostics, ImplDecl, Program};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Options forwarded to the per-unit [`Checker`]s. The budget is part
    /// of every obligation's fingerprint.
    pub check: CheckOptions,
    /// Worker threads for the batch scheduler; `0` means one per
    /// available core.
    pub workers: usize,
    /// Directory for the persistent verdict cache; `None` keeps the cache
    /// in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Compute a full source-level [`Diagnosis`] (concretization +
    /// interpreter replay) for every rejected obligation. Off by default;
    /// refuted obligations still carry their obligation kind and label id
    /// either way. A cache hit that lacks a diagnosis is re-proved when
    /// this is set, since the candidate model is not cached.
    pub diagnose: bool,
}

/// One named source in a batch.
#[derive(Debug, Clone)]
pub struct BatchUnit {
    /// Display name (file path or `corpus:NAME` reference).
    pub name: String,
    /// The oolong source text.
    pub source: String,
}

/// The result of one proof obligation.
#[derive(Debug, Clone)]
pub struct ObligationReport {
    /// Name of the batch unit the obligation came from.
    pub unit: String,
    /// Name of the implemented procedure.
    pub proc_name: String,
    /// The obligation's content address (absent when no VC was generated:
    /// restriction violations and translation errors).
    pub fingerprint: Option<Fingerprint>,
    /// The verdict, identical in form to a fresh [`Checker`] verdict.
    pub verdict: Verdict,
    /// Whether the verdict was served from the cache.
    pub cache_hit: bool,
    /// Wall-clock milliseconds spent on this obligation, up to its
    /// verdict: for a proof, the restriction check, VC generation,
    /// slicing, fingerprint, cache lookup, context, proof and diagnosis
    /// (not the store write).
    pub millis: f64,
    /// The source-level diagnosis, when diagnosis was enabled and the
    /// obligation was rejected.
    pub diagnosis: Option<Diagnosis>,
}

/// A unit that failed to parse or scope-analyse.
#[derive(Debug, Clone)]
pub struct UnitError {
    /// Name of the batch unit.
    pub unit: String,
    /// Rendered diagnostics.
    pub message: String,
}

/// The result of one batch run.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-obligation results, in deterministic batch order (unit order,
    /// then declaration order within a unit).
    pub obligations: Vec<ObligationReport>,
    /// Units that could not be checked at all.
    pub unit_errors: Vec<UnitError>,
    /// Obligations served from the cache.
    pub cache_hits: usize,
    /// Cache hits found by early cutoff: the implementation's cutoff key
    /// was remembered, so no VC was generated for it. Not part of the
    /// JSON report or the event log.
    pub cutoff_hits: usize,
    /// Obligations that invoked the prover.
    pub prover_calls: usize,
    /// Batch wall-clock milliseconds.
    pub millis: f64,
}

impl BatchReport {
    /// Whether every unit checked and every obligation verified.
    pub fn all_verified(&self) -> bool {
        self.unit_errors.is_empty() && self.obligations.iter().all(|o| o.verdict.is_verified())
    }

    /// Count of obligations with each outcome, as
    /// `(verified, rejected, unknown)`.
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut tally = (0, 0, 0);
        for obligation in &self.obligations {
            match obligation.verdict {
                Verdict::Verified(_) => tally.0 += 1,
                Verdict::Unknown(_) => tally.2 += 1,
                _ => tally.1 += 1,
            }
        }
        tally
    }

    /// The whole report as a JSON object (the `--json` output of
    /// `oolong batch`).
    pub fn to_json(&self) -> Json {
        let obligations = self
            .obligations
            .iter()
            .map(|o| {
                let mut members = vec![
                    ("unit".to_string(), Json::Str(o.unit.clone())),
                    ("proc".to_string(), Json::Str(o.proc_name.clone())),
                    (
                        "fingerprint".to_string(),
                        match o.fingerprint {
                            Some(fp) => Json::Str(fp.to_string()),
                            None => Json::Null,
                        },
                    ),
                    (
                        "verdict".to_string(),
                        Json::Str(o.verdict.label().to_string()),
                    ),
                    ("cache_hit".to_string(), Json::Bool(o.cache_hit)),
                    ("millis".to_string(), Json::Float(o.millis)),
                ];
                if let Some(stats) = o.verdict.stats() {
                    members.push((
                        "stats".to_string(),
                        Json::Object(stats_scalar_members(stats)),
                    ));
                }
                // Refuted obligations always carry their attribution —
                // kind and label id — even when full diagnosis is off.
                members.extend(attribution_members(&o.verdict));
                if let Some(diagnosis) = &o.diagnosis {
                    members.push(("diagnosis".to_string(), diagnosis_to_json(diagnosis)));
                }
                Json::Object(members)
            })
            .collect();
        let unit_errors = self
            .unit_errors
            .iter()
            .map(|e| {
                Json::Object(vec![
                    ("unit".to_string(), Json::Str(e.unit.clone())),
                    ("message".to_string(), Json::Str(e.message.clone())),
                ])
            })
            .collect();
        let tally = self.tally();
        Json::Object(vec![
            ("obligations".to_string(), Json::Array(obligations)),
            ("unit_errors".to_string(), Json::Array(unit_errors)),
            (
                "summary".to_string(),
                Json::Object(vec![
                    ("verified".to_string(), Json::Int(tally.0 as i64)),
                    ("rejected".to_string(), Json::Int(tally.1 as i64)),
                    ("unknown".to_string(), Json::Int(tally.2 as i64)),
                    ("cache_hits".to_string(), Json::Int(self.cache_hits as i64)),
                    (
                        "prover_calls".to_string(),
                        Json::Int(self.prover_calls as i64),
                    ),
                    ("millis".to_string(), Json::Float(self.millis)),
                ]),
            ),
        ])
    }
}

/// A unit that passed the front end: its checker, and the implementations
/// to check with their cutoff keys, in `scope().impls()` order.
struct CheckedUnit {
    checker: Checker,
    impls: Vec<(ImplId, u128)>,
}

/// The incremental verification engine: a verdict store plus a batch
/// scheduler plus a pool of warm scope contexts, fronted by an
/// early-cutoff map.
#[derive(Debug)]
pub struct Engine {
    options: EngineOptions,
    store: Arc<dyn VerdictStore>,
    contexts: Arc<ContextPool>,
    cutoffs: Arc<CutoffMap>,
}

impl Engine {
    /// Creates an engine over a private [`TieredStore`]: a bounded
    /// in-memory LRU tier, backed by a lazy on-disk tier when
    /// `options.cache_dir` is set. Opening is O(1) — entries are read
    /// on demand, one file per lookup, never scanned up front. The
    /// private cutoff map has the memory tier's bound.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cache directory cannot be created.
    pub fn new(options: EngineOptions) -> io::Result<Engine> {
        let store: Arc<dyn VerdictStore> = match &options.cache_dir {
            Some(dir) => Arc::new(TieredStore::at_dir(dir, DEFAULT_MEMORY_CAPACITY)?),
            None => Arc::new(TieredStore::in_memory(DEFAULT_MEMORY_CAPACITY)),
        };
        Ok(Engine {
            options,
            store,
            contexts: Arc::new(ContextPool::with_capacity(DEFAULT_CONTEXT_CAPACITY)),
            cutoffs: Arc::new(CutoffMap::with_capacity(DEFAULT_MEMORY_CAPACITY)),
        })
    }

    /// Creates an engine over a shared store handle, a shared pool of
    /// warm scope contexts and a shared cutoff map. This is the resident
    /// shape: a long-lived process opens its cache once, then builds one
    /// cheap `Engine` per request (each request may carry its own prover
    /// budget) against the same store, pool and map, so background
    /// saturation is paid once per scope, not once per request, and an
    /// unchanged implementation is recognised without generating its VC.
    /// `options.cache_dir` is ignored — the store already decided where
    /// it persists.
    pub fn with_store_and_contexts(
        options: EngineOptions,
        store: Arc<dyn VerdictStore>,
        contexts: Arc<ContextPool>,
        cutoffs: Arc<CutoffMap>,
    ) -> Engine {
        Engine {
            options,
            store,
            contexts,
            cutoffs,
        }
    }

    /// The engine's verdict store.
    pub fn store(&self) -> &Arc<dyn VerdictStore> {
        &self.store
    }

    /// The engine's warm scope-context pool.
    pub fn contexts(&self) -> &Arc<ContextPool> {
        &self.contexts
    }

    /// The engine's early-cutoff map.
    pub fn cutoffs(&self) -> &Arc<CutoffMap> {
        &self.cutoffs
    }

    /// The engine's configuration.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Checks every implementation of every unit, serving unchanged
    /// obligations from the cache.
    pub fn check_batch(&self, units: &[BatchUnit]) -> BatchReport {
        let batch_start = Instant::now();
        let checked = units
            .iter()
            .map(|unit| {
                parse_program(&unit.source)
                    .map_err(|d| d.render(&unit.source))
                    .and_then(|program| self.front_end(&program, &unit.source))
            })
            .collect();
        self.run_units(batch_start, units, checked)
    }

    /// Convenience wrapper: one anonymous unit.
    pub fn check_source(&self, name: &str, source: &str) -> BatchReport {
        self.check_batch(&[unit(name, source)])
    }

    /// Checks every implementation of an already-parsed program as one
    /// unit named `name`. The program's spans must point into `source`,
    /// which diagnostics and diagnoses are rendered against: a module view
    /// ([`oolong_sema::visible_program`]) or a declaration subset
    /// ([`oolong_sema::subset_program`]) of a parsed source qualifies.
    pub fn check_program(&self, name: &str, source: &str, program: &Program) -> BatchReport {
        let batch_start = Instant::now();
        let checked = self.front_end(program, source);
        self.run_units(batch_start, &[unit(name, source)], vec![checked])
    }

    /// Checks a program module by module: each module's implementations
    /// against the module's own scope (its declarations, those of the
    /// modules it transitively imports, and the top-level declarations),
    /// the piecewise checking the paper's modular soundness licenses.
    /// Top-level implementations check against the whole flattened
    /// program and report first, under the pseudo-module name `""`; the
    /// modules follow in declaration order. A module whose scope does not
    /// analyse reports a unit error.
    ///
    /// # Errors
    ///
    /// Returns the diagnostics if the module structure is invalid.
    pub fn check_modular(
        &self,
        name: &str,
        source: &str,
        program: &Program,
    ) -> Result<Vec<(String, BatchReport)>, Diagnostics> {
        let infos = oolong_sema::modules::modules(program)?;
        let mut reports = Vec::new();
        let top_impls: Vec<&ImplDecl> = program
            .decls
            .iter()
            .filter_map(|d| match d {
                Decl::Impl(i) => Some(i),
                _ => None,
            })
            .collect();
        if !top_impls.is_empty() {
            let batch_start = Instant::now();
            let checked =
                self.front_end(&oolong_sema::flatten(program), source)
                    .map(|mut checked| {
                        let scope = checked.checker.scope();
                        checked.impls.retain(|&(impl_id, _)| {
                            let info = scope.impl_info(impl_id);
                            let proc = &scope.proc_info(info.proc).name;
                            top_impls
                                .iter()
                                .any(|ti| &ti.name.text == proc && ti.body == info.body)
                        });
                        checked
                    });
            let report = self.run_units(batch_start, &[unit(name, source)], vec![checked]);
            reports.push((String::new(), report));
        }
        for info in infos {
            let visible = oolong_sema::visible_program(program, &info.name)?;
            reports.push((info.name, self.check_program(name, source, &visible)));
        }
        Ok(reports)
    }

    /// The checker this engine checks `source` with: parsed, analysed
    /// and built around the scope background the cutoff map remembers for
    /// it, as a batch would build it. Lets a caller see which background
    /// a unit shares.
    ///
    /// # Errors
    ///
    /// Returns the rendered diagnostics if `source` does not parse or
    /// analyse.
    pub fn checker(&self, source: &str) -> Result<Checker, String> {
        let program = parse_program(source).map_err(|d| d.render(source))?;
        Ok(self.front_end(&program, source)?.checker)
    }

    /// The per-unit front end every entry point shares: scope analysis,
    /// the cutoff keys, then the checker, around the scope background the
    /// cutoff map remembers for the keys' scope part when it has one.
    /// Errors are rendered against `source`.
    fn front_end(&self, program: &Program, source: &str) -> Result<CheckedUnit, String> {
        let options = &self.options.check;
        let scope = Scope::analyze(program).map_err(|d| d.render(source))?;
        let arrays = options.arrays_level(&scope);
        let keys = cutoff_keys(program, options, arrays);
        let (background, fresh) = self.cutoffs.background(keys.scope, || {
            Checker::build_background(&scope, options, arrays)
        });
        let checker = Checker::with_background(scope, options.clone(), arrays, background, fresh);
        debug_assert_eq!(keys.impls.len(), checker.scope().impls().count());
        let impls = checker
            .scope()
            .impls()
            .map(|(impl_id, _)| impl_id)
            .zip(keys.impls)
            .collect();
        Ok(CheckedUnit { checker, impls })
    }

    /// Checks the implementations of the units that passed the front end,
    /// in parallel, and assembles the report: unit errors first, then the
    /// obligations in unit order.
    fn run_units(
        &self,
        batch_start: Instant,
        units: &[BatchUnit],
        checked: Vec<Result<CheckedUnit, String>>,
    ) -> BatchReport {
        let mut unit_errors = Vec::new();
        let mut checkers: Vec<Option<CheckedUnit>> = Vec::with_capacity(units.len());
        for (checked, unit) in checked.into_iter().zip(units) {
            match checked {
                Ok(checked) => checkers.push(Some(checked)),
                Err(message) => {
                    unit_errors.push(UnitError {
                        unit: unit.name.clone(),
                        message,
                    });
                    checkers.push(None);
                }
            }
        }

        // One task per implementation, in deterministic batch order.
        let tasks: Vec<Task> = checkers
            .iter()
            .enumerate()
            .filter_map(|(unit_idx, checked)| checked.as_ref().map(|c| (unit_idx, c)))
            .flat_map(|(unit_idx, checked)| {
                checked
                    .impls
                    .iter()
                    .map(move |&(impl_id, cutoff_key)| Task {
                        unit_idx,
                        impl_id,
                        cutoff_key,
                    })
            })
            .collect();

        let workers = match self.options.workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        let outcomes = self.run_tasks(units, &checkers, &tasks, workers);

        let mut report = BatchReport {
            unit_errors,
            ..BatchReport::default()
        };
        for (obligation, cutoff_hit) in outcomes {
            report.cache_hits += usize::from(obligation.cache_hit);
            report.cutoff_hits += usize::from(cutoff_hit);
            // Restriction violations and translation errors have no
            // fingerprint; every other miss was proved.
            report.prover_calls +=
                usize::from(!obligation.cache_hit && obligation.fingerprint.is_some());
            report.obligations.push(obligation);
        }
        report.millis = batch_start.elapsed().as_secs_f64() * 1_000.0;
        report
    }

    /// Runs the worker pool and returns each task's report and whether
    /// early cutoff served it, in task order.
    fn run_tasks(
        &self,
        units: &[BatchUnit],
        checkers: &[Option<CheckedUnit>],
        tasks: &[Task],
        workers: usize,
    ) -> Vec<(ObligationReport, bool)> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let run = |task: &Task| {
            let checker = &checkers[task.unit_idx]
                .as_ref()
                .expect("tasks are only created for well-formed units")
                .checker;
            self.process_task(&units[task.unit_idx], checker, task)
        };
        if workers <= 1 || tasks.len() <= 1 {
            return tasks.iter().map(run).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(ObligationReport, bool)>>> =
            tasks.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers.min(tasks.len()))
                .map(|_| {
                    scope.spawn(|| loop {
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(seq) else {
                            break;
                        };
                        let outcome = run(task);
                        *slots[seq]
                            .lock()
                            .expect("no panics while holding slot lock") = Some(outcome);
                    })
                })
                .collect();
            // Joined one by one rather than left to the scope: the scope
            // returns once the closures finish, while a join waits until
            // the thread has exited and handed its malloc arena back. A
            // later batch whose workers start before that gets a fresh
            // arena each, and every extra arena's heap stays in the
            // process's resident set (about 1.3 MB a pass on the paper
            // corpus).
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
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
    }

    /// The store entry for `fingerprint`, if it can serve this run. A hit
    /// that predates diagnosis (or was cached with diagnosis off) cannot
    /// serve an `--explain` run: the candidate model needed to build a
    /// diagnosis is not cached, so it is re-proved instead.
    fn cached(&self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        self.store.get(fingerprint).filter(|hit| {
            !(self.options.diagnose
                && hit.outcome == CachedOutcome::NotProved
                && hit.diagnosis.is_none())
        })
    }

    /// Processes one obligation: early cutoff, then restriction check, VC
    /// generation, fingerprint, cache lookup, and (on a miss) the prover.
    /// Returns the obligation's report and whether early cutoff served it.
    fn process_task(
        &self,
        unit: &BatchUnit,
        checker: &Checker,
        task: &Task,
    ) -> (ObligationReport, bool) {
        let impl_id = task.impl_id;
        let scope = checker.scope();
        let proc_name = scope.proc_info(scope.impl_info(impl_id).proc).name.clone();
        let start = Instant::now();
        let finish = |fingerprint, verdict, cache_hit, diagnosis| ObligationReport {
            unit: unit.name.clone(),
            proc_name: proc_name.clone(),
            fingerprint,
            verdict,
            cache_hit,
            millis: start.elapsed().as_secs_f64() * 1_000.0,
            diagnosis,
        };
        let served = |fingerprint, hit: CachedVerdict| {
            finish(Some(fingerprint), hit.to_verdict(), true, hit.diagnosis)
        };

        // Early cutoff: an unchanged scope and body produce the fingerprint
        // they produced before, so a remembered one still in the store is
        // served without restriction checking, vcgen or slicing.
        // A cached refutation carries the positions of the text it was
        // first proved against, and a position-only edit keeps both the
        // cutoff key and the fingerprint, so a refuted hit is re-anchored
        // in the current text's VC; other hits need none.
        let remembered = self.cutoffs.get(task.cutoff_key);
        if let Some(fingerprint) = remembered {
            if let Some(mut hit) = self.cached(fingerprint) {
                #[cfg(debug_assertions)]
                assert_cutoff_is_sound(checker, impl_id, fingerprint);
                if hit.outcome == CachedOutcome::NotProved {
                    if let Ok(vc) = checker.vc(impl_id) {
                        anchor_refutation(&mut hit, &vc, &unit.source);
                    }
                }
                return (served(fingerprint, hit), true);
            }
        }

        let violations = checker.restriction_violations(impl_id);
        if !violations.is_empty() {
            let diagnosis = if self.options.diagnose {
                diagnose_restriction(scope, &unit.source, impl_id, &proc_name, &violations)
            } else {
                None
            };
            let verdict = Verdict::RestrictionViolation(violations);
            return (finish(None, verdict, false, diagnosis), false);
        }

        let vc = match checker.vc(impl_id) {
            Ok(vc) => vc,
            Err(diagnostic) => {
                let verdict = Verdict::TranslationError(diagnostic);
                return (finish(None, verdict, false, None), false);
            }
        };

        let (slice, phases, fingerprint) = fingerprint_of(checker, &vc);
        self.cutoffs.insert(task.cutoff_key, fingerprint);
        // A remembered fingerprint was already looked up above.
        if remembered != Some(fingerprint) {
            if let Some(mut hit) = self.cached(fingerprint) {
                anchor_refutation(&mut hit, &vc, &unit.source);
                return (served(fingerprint, hit), false);
            }
        }

        // Prove inside a warm scope context from the pool, building (and
        // thereby saturating) one only when no idle context for this sliced
        // background is pooled. Each concurrent borrower gets its own
        // context, so same-scope obligations prove in parallel too.
        let key = context_key(
            &checker.sliced_background(&vc, &slice),
            &phases,
            &checker.options().budget,
            checker.options().strategy,
        );
        let verdict = {
            let slot = self.contexts.checkout(key);
            let mut guard = slot.lock().expect("context slot lock poisoned");
            let ctx = guard.get_or_insert_with(|| checker.context_for_slice(&vc, &slice));
            checker.verdict_for_vc_in(ctx, &vc, slice.dropped())
        };
        let diagnosis = match (&verdict, self.options.diagnose) {
            (Verdict::NotVerified(_, refutation), true) => {
                diagnose_refutation(scope, &unit.source, &vc, refutation)
            }
            _ => None,
        };
        let report = finish(Some(fingerprint), verdict, false, diagnosis);
        if let Some(entry) =
            CachedVerdict::from_verdict(&proc_name, &report.verdict, report.diagnosis.as_ref())
        {
            self.store.put(fingerprint, entry);
        }
        (report, false)
    }
}

/// A batch unit named `name` over `source`.
fn unit(name: &str, source: &str) -> BatchUnit {
    BatchUnit {
        name: name.to_string(),
        source: source.to_string(),
    }
}

/// One obligation of a batch: an implementation of a well-formed unit.
struct Task {
    unit_idx: usize,
    impl_id: ImplId,
    cutoff_key: u128,
}

/// The relevance slice, activation phases and fingerprint of `vc`.
fn fingerprint_of(checker: &Checker, vc: &Vc) -> (BackgroundSlice, Vec<Phase>, Fingerprint) {
    let slice = checker.background_slice(vc);
    let phases = checker.sliced_phases(&slice);
    let fingerprint = fingerprint_vc(vc, &checker.options().budget, &slice.keep, &phases);
    (slice, phases, fingerprint)
}

/// Re-anchors a cached refutation in `vc`, the VC of the text being
/// checked now: the primary label and the diagnosis take the span,
/// detail and rendering of the label with the same id, against `source`.
/// Label ids are part of the fingerprint; spans are not. Verified and
/// unknown entries carry neither, and are left as they are.
fn anchor_refutation(hit: &mut CachedVerdict, vc: &Vc, source: &str) {
    if let Some(primary) = &mut hit.primary {
        if let Some(label) = vc.label(primary.id) {
            *primary = label.clone();
        }
    }
    if let Some(diagnosis) = &mut hit.diagnosis {
        if let Some(label) = diagnosis.label_id.and_then(|id| vc.label(id)) {
            diagnosis.anchor(label, source);
        }
    }
}

/// The debug guard behind early cutoff: a cutoff-key hit must be an
/// obligation that passes the restriction check and has exactly the
/// remembered fingerprint. Every debug-build test that re-checks a unit
/// thereby checks the key's soundness.
#[cfg(debug_assertions)]
fn assert_cutoff_is_sound(checker: &Checker, impl_id: ImplId, remembered: Fingerprint) {
    assert!(
        checker.restriction_violations(impl_id).is_empty(),
        "cutoff key hit on an obligation that violates the restrictions"
    );
    let vc = checker
        .vc(impl_id)
        .expect("cutoff key hit on an obligation whose VC does not translate");
    assert_eq!(
        fingerprint_of(checker, &vc).2,
        remembered,
        "cutoff key hit with a different fingerprint for `{}`",
        vc.proc_name
    );
}
