//! E19: scope-shared prover contexts, cold and warm.
//!
//! * `e19_engine_cold` — the full paper-corpus batch (parse, analysis, VC
//!   generation, proving) through the incremental engine: fingerprinting
//!   plus the context pool, empty caches.
//! * `e19_edit_reverify` — re-verification with the verdict store
//!   disabled (modelling an edit whose fingerprint misses): every round
//!   reproves the scope's obligations, and a resident engine serves the
//!   scope's saturated context from the warm pool where a cold engine
//!   resaturates it.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oolong_corpus::paper;
use oolong_engine::{
    BatchUnit, ContextPool, Engine, EngineOptions, MemoryTier, DEFAULT_CONTEXT_CAPACITY,
};

fn corpus_units() -> Vec<BatchUnit> {
    paper::all()
        .iter()
        .map(|p| BatchUnit {
            name: p.name.to_string(),
            source: p.source.to_string(),
        })
        .collect()
}

/// E19a: the cold batch through the engine (fingerprints + context pool).
fn e19_engine_cold(c: &mut Criterion) {
    let units = corpus_units();
    let mut group = c.benchmark_group("e19_engine_cold");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::from_parameter("corpus"), &units, |b, units| {
        b.iter(|| {
            let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
            engine.check_batch(units)
        });
    });
    group.finish();
}

/// E19b: re-verification on a resident engine versus a cold start. The
/// verdict store is a zero-capacity tier, modelling an edited body whose
/// fingerprint misses: every round genuinely reproves the scope's three
/// obligations (asserted per iteration). The resident engine checks the
/// scope's saturated context out of the warm pool; the cold engine
/// rebuilds and resaturates it from scratch. (A *constant* edit would not
/// force this: assigned values never enter a modifies VC, so
/// `r.f := 1` → `:= 2` keeps the fingerprint and is answered from the
/// verdict cache — that replay path is E13/E18's win, not this one.)
fn e19_edit_reverify(c: &mut Criterion) {
    // Store-only bodies of different lengths: distinct fingerprints, one
    // keep-mask, so the scope's obligations share one context key.
    const UNIT: &str = "group g
         field f in g
         proc p(r) modifies r.g
         impl p(r) { r.f := 1 }
         proc q(r) modifies r.g
         impl q(r) { r.f := 2 ; r.f := 3 }
         proc w(r) modifies r.g
         impl w(r) { r.f := 4 ; r.f := 5 ; r.f := 6 }";
    // A fresh engine: no verdict cache and a cold context pool of its own.
    let cold_engine = || {
        Engine::with_store_and_contexts(
            EngineOptions::default(),
            Arc::new(MemoryTier::with_capacity(0)),
            Arc::new(ContextPool::with_capacity(DEFAULT_CONTEXT_CAPACITY)),
        )
    };
    let mut group = c.benchmark_group("e19_edit_reverify");
    let engine = cold_engine();
    engine.check_source("unit", UNIT);
    group.bench_function("warm_pool", |b| {
        b.iter(|| {
            let report = engine.check_source("unit", UNIT);
            assert_eq!(report.prover_calls, 3, "every round must reprove");
            assert_eq!(report.cache_hits, 0);
            report
        })
    });
    let metrics = engine.contexts().metrics();
    assert!(metrics.hits > 0, "re-verification reuses the scope context");
    group.bench_function("cold_engine", |b| {
        b.iter(|| {
            let report = cold_engine().check_source("unit", UNIT);
            assert_eq!(report.prover_calls, 3);
            report
        })
    });
    group.finish();
}

criterion_group!(benches, e19_engine_cold, e19_edit_reverify);
criterion_main!(benches);
