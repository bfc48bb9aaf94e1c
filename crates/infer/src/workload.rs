//! Inference unit specs shared by the CLI and the serve daemon.
//!
//! A spec is either a plain unit name (resolved by the caller, typically a
//! file path) or one of three scheme-prefixed forms:
//!
//! - `corpus:NAME` — a paper-corpus program as written, read through
//!   [`load_source`] like every other unit name.
//! - `stripped:NAME` — a paper-corpus program with the `modifies` clauses
//!   of all implemented procedures removed (the inference benchmark form).
//! - `unannotated:SEED` — a generated program with annotations stripped
//!   and generator ground truth attached for accuracy measurement.

use oolong_corpus::{generate_unannotated_source, load_source, UnannotatedConfig};

use crate::edits::strip_implemented_modifies;
use crate::report::GroundTruth;

/// A resolved inference unit: a named source with optional ground truth.
#[derive(Debug, Clone)]
pub struct InferUnit {
    /// Display name (the spec itself).
    pub name: String,
    /// Program source to infer on.
    pub source: String,
    /// Generator ground truth, when the spec carries one.
    pub truth: Option<GroundTruth>,
}

/// Resolves a scheme-prefixed spec. Returns `None` when the spec carries
/// no recognized scheme (the caller reads it with [`load_source`]),
/// `Some(Err(..))` when the scheme is recognized but resolution fails.
pub fn resolve_spec(spec: &str) -> Option<Result<InferUnit, String>> {
    let unit = |source| InferUnit {
        name: spec.to_string(),
        source,
        truth: None,
    };
    if spec.starts_with("corpus:") {
        return Some(load_source(spec).map(unit));
    }
    if let Some(name) = spec.strip_prefix("stripped:") {
        return Some(
            load_source(&format!("corpus:{name}"))
                .and_then(|source| strip_implemented_modifies(&source))
                .map(unit),
        );
    }
    if let Some(seed) = spec.strip_prefix("unannotated:") {
        return Some(match seed.parse::<u64>() {
            Ok(seed) => {
                let gen = generate_unannotated_source(seed, &UnannotatedConfig::default());
                let truth = GroundTruth::new(
                    gen.truth
                        .iter()
                        .map(|t| (t.proc.clone(), t.entries.clone()))
                        .collect(),
                );
                Ok(InferUnit {
                    name: spec.to_string(),
                    source: gen.source,
                    truth: Some(truth),
                })
            }
            Err(_) => Err(format!("invalid unannotated seed `{seed}`")),
        });
    }
    None
}
