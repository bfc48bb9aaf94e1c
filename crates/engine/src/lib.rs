//! **The incremental verification engine** for oolong.
//!
//! The checker in [`datagroups`] answers "does this implementation respect
//! its `modifies` clause?" from scratch every time. This crate makes that
//! answer *incremental* across runs:
//!
//! * [`fingerprint`] — a content address per proof obligation: a stable
//!   128-bit structural hash over the clausified verification condition
//!   (which embeds the exact background-axiom set of the implementation's
//!   scope) and the prover [`Budget`](oolong_prover::Budget);
//! * [`cutoff`] — early cutoff: a source-level key per implementation
//!   (options, scope declarations, own body) that remembers the
//!   fingerprint it produced, so unchanged implementations skip VC
//!   generation altogether;
//! * [`cache`] — the cached verdict entry and its one-JSON-file-per-entry
//!   format; invalidation is fingerprint mismatch, with no dependency
//!   graph to maintain;
//! * [`store`] — the verdict store: a bounded in-memory tier in front of
//!   an optional lazy on-disk tier;
//! * [`engine`] — a batch scheduler that fans obligations across worker
//!   threads, consults the cache before every prover call, and reports
//!   per-obligation timing and prover statistics;
//! * [`events`] — a structured JSONL event log derived from a batch
//!   report, the observability surface that makes warm-cache claims
//!   checkable ("zero prover calls on unchanged implementations" is a
//!   countable fact, not an inference);
//! * [`json`] — the minimal JSON support underlying both.
//!
//! The soundness of caching rests on the paper's modularity result: an
//! implementation's verdict depends only on its scope, and everything the
//! scope contributes (background axioms, modifies-list translations,
//! owner-exclusion obligations) is already clausified into the VC that the
//! fingerprint hashes. Two obligations with equal fingerprints are the
//! same obligation.
//!
//! # Example
//!
//! ```
//! use oolong_engine::{BatchUnit, Engine, EngineOptions};
//!
//! let engine = Engine::new(EngineOptions::default())?;
//! let unit = BatchUnit {
//!     name: "example".to_string(),
//!     source: "group value
//!              field num in value
//!              proc bump(r) modifies r.value
//!              impl bump(r) { r.num := r.num + 1 }"
//!         .to_string(),
//! };
//! let cold = engine.check_batch(std::slice::from_ref(&unit));
//! assert!(cold.all_verified());
//! assert_eq!((cold.cache_hits, cold.prover_calls), (0, 1));
//!
//! // Same obligation, same budget: served from the cache.
//! let warm = engine.check_batch(std::slice::from_ref(&unit));
//! assert!(warm.all_verified());
//! assert_eq!((warm.cache_hits, warm.prover_calls), (1, 0));
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod cache;
pub mod contexts;
pub mod cutoff;
pub mod diagjson;
pub mod engine;
pub mod events;
pub mod fingerprint;
pub mod json;
pub mod store;

pub use cache::{
    stats_from_json, stats_to_json, CachedOutcome, CachedVerdict, CACHE_FORMAT_VERSION,
};
pub use contexts::{
    context_key, ContextPool, ContextPoolMetrics, ContextSlot, DEFAULT_CONTEXT_CAPACITY,
};
pub use cutoff::{Built, CutoffMap, CutoffMetrics, BACKGROUND_CAPACITY};
pub use diagjson::{
    attribution_members, diagnosis_from_json, diagnosis_to_json, label_from_json, label_to_json,
};
pub use engine::{BatchReport, BatchUnit, Engine, EngineOptions, ObligationReport, UnitError};
pub use events::{render_jsonl, Event, EventLogWriter};
pub use fingerprint::{fingerprint_vc, Fingerprint, FINGERPRINT_VERSION};
pub use json::{Json, JsonError};
pub use store::{
    DiskTier, MemoryTier, StoreMetrics, TieredStore, VerdictStore, DEFAULT_MEMORY_CAPACITY,
};
