//! The engine's structured event log.
//!
//! Every obligation a batch processes emits an `obligation_started` event
//! followed by exactly one terminal event (`cache_hit`, `verified`,
//! `refuted`, `fuel_exhausted`, `restriction_violation`, or
//! `translation_error`); obligations that carry prover stats additionally
//! emit one `prover_profile` event with the per-axiom instantiation
//! telemetry; units that fail to parse or analyse emit a `unit_error`; the
//! batch closes with one `batch_summary`. Rendered as JSON Lines (one
//! compact object per line), the log is the engine's observability
//! surface: warm-cache behaviour ("zero prover calls on unchanged impls")
//! is *verified* by counting terminal event kinds, not inferred from
//! timings, and warm runs replay the cold run's stats verbatim (cache
//! hits carry the cached stats).
//!
//! Events are ordered by obligation sequence number, not wall-clock
//! completion, so logs from parallel runs are deterministic up to the
//! timing fields.

use crate::cache::stats_to_json;
use crate::diagjson::{diagnosis_to_json, label_to_json};
use crate::fingerprint::Fingerprint;
use crate::json::Json;
use datagroups::ObligationLabel;
use oolong_diagnose::Diagnosis;
use oolong_prover::Stats;

/// One structured engine event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An obligation was picked up by a worker.
    ObligationStarted {
        /// Obligation sequence number (deterministic batch order).
        seq: usize,
        /// Name of the batch unit (file path or corpus reference).
        unit: String,
        /// Name of the implemented procedure.
        proc: String,
        /// The obligation's content address, when a VC was generated.
        fingerprint: Option<Fingerprint>,
    },
    /// The verdict was served from the cache; no prover call happened.
    CacheHit {
        /// Obligation sequence number.
        seq: usize,
        /// The cached outcome (`proved` / `not_proved` / `unknown`).
        outcome: &'static str,
        /// The cached prover work counters of the original cold run,
        /// replayed so warm logs carry the same telemetry as cold ones.
        stats: Stats,
    },
    /// Per-axiom prover telemetry for one obligation: instantiation and
    /// match counts per quantifier, plus divergence attribution when the
    /// budget ran out. Emitted after the terminal event of every
    /// obligation that carries stats — cached or freshly proved.
    ProverProfile {
        /// Obligation sequence number.
        seq: usize,
        /// Whether the stats were replayed from the cache.
        cached: bool,
        /// The prover work counters, including per-quantifier telemetry.
        stats: Stats,
    },
    /// The prover proved the VC: the implementation verified.
    Verified {
        /// Obligation sequence number.
        seq: usize,
        /// Prover wall-clock milliseconds.
        millis: f64,
        /// Prover work counters.
        stats: Stats,
    },
    /// The prover refuted the VC: the implementation was rejected.
    Refuted {
        /// Obligation sequence number.
        seq: usize,
        /// Prover wall-clock milliseconds.
        millis: f64,
        /// Prover work counters.
        stats: Stats,
        /// Lines of the open-branch sketch, when recorded.
        open_branch: Option<Vec<String>>,
        /// Ids of every position label on the refuting branch.
        labels: Vec<u32>,
        /// The primary label — the obligation blamed for the refutation —
        /// with its kind, span, and clause description.
        primary: Option<ObligationLabel>,
        /// The full source-level diagnosis, when diagnosis was enabled
        /// (boxed: a diagnosis dwarfs every other event variant).
        diagnosis: Option<Box<Diagnosis>>,
    },
    /// The prover exhausted its budget without a verdict.
    FuelExhausted {
        /// Obligation sequence number.
        seq: usize,
        /// Prover wall-clock milliseconds.
        millis: f64,
        /// Prover work counters.
        stats: Stats,
    },
    /// The implementation violates pivot uniqueness; no VC was generated.
    RestrictionViolation {
        /// Obligation sequence number.
        seq: usize,
        /// Rendered diagnostics.
        violations: Vec<String>,
    },
    /// VC generation failed on an unsupported expression form.
    TranslationError {
        /// Obligation sequence number.
        seq: usize,
        /// Rendered diagnostic.
        message: String,
    },
    /// A batch unit failed to parse or analyse; its obligations are
    /// unknown and nothing was checked.
    UnitError {
        /// Name of the batch unit.
        unit: String,
        /// Rendered diagnostic.
        message: String,
    },
    /// End-of-batch accounting.
    BatchSummary {
        /// Total obligations processed.
        obligations: usize,
        /// Obligations served from the cache.
        cache_hits: usize,
        /// Obligations that invoked the prover.
        prover_calls: usize,
        /// Final tally, as `(verified, rejected, unknown)`.
        tally: (usize, usize, usize),
        /// Batch wall-clock milliseconds.
        millis: f64,
    },
}

impl Event {
    /// The event's kind tag, as written in the JSON `event` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ObligationStarted { .. } => "obligation_started",
            Event::CacheHit { .. } => "cache_hit",
            Event::ProverProfile { .. } => "prover_profile",
            Event::Verified { .. } => "verified",
            Event::Refuted { .. } => "refuted",
            Event::FuelExhausted { .. } => "fuel_exhausted",
            Event::RestrictionViolation { .. } => "restriction_violation",
            Event::TranslationError { .. } => "translation_error",
            Event::UnitError { .. } => "unit_error",
            Event::BatchSummary { .. } => "batch_summary",
        }
    }

    /// The event as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut members = vec![("event".to_string(), Json::Str(self.kind().to_string()))];
        let stats_json = |stats: &Stats| {
            Json::Object(
                stats
                    .to_fields()
                    .into_iter()
                    .map(|(name, value)| (name.to_string(), Json::Int(value as i64)))
                    .collect(),
            )
        };
        match self {
            Event::ObligationStarted {
                seq,
                unit,
                proc,
                fingerprint,
            } => {
                members.push(("seq".to_string(), Json::Int(*seq as i64)));
                members.push(("unit".to_string(), Json::Str(unit.clone())));
                members.push(("proc".to_string(), Json::Str(proc.clone())));
                members.push((
                    "fingerprint".to_string(),
                    match fingerprint {
                        Some(fp) => Json::Str(fp.to_string()),
                        None => Json::Null,
                    },
                ));
            }
            Event::CacheHit {
                seq,
                outcome,
                stats,
            } => {
                members.push(("seq".to_string(), Json::Int(*seq as i64)));
                members.push(("outcome".to_string(), Json::Str((*outcome).to_string())));
                members.push(("stats".to_string(), stats_json(stats)));
            }
            Event::ProverProfile { seq, cached, stats } => {
                members.push(("seq".to_string(), Json::Int(*seq as i64)));
                members.push(("cached".to_string(), Json::Bool(*cached)));
                members.push((
                    "exhausted".to_string(),
                    match stats.exhausted {
                        Some(reason) => Json::Str(reason.as_str().to_string()),
                        None => Json::Null,
                    },
                ));
                // The full structured form (scalars + per_quant) — the
                // JSONL consumer's view of the per-axiom telemetry.
                members.push(("stats".to_string(), stats_to_json(stats)));
                if let Some(divergence) = stats.divergence() {
                    members.push((
                        "divergence".to_string(),
                        Json::Array(
                            divergence
                                .culprits
                                .iter()
                                .map(|c| Json::Str(c.to_string()))
                                .collect(),
                        ),
                    ));
                }
            }
            Event::Verified { seq, millis, stats } => {
                members.push(("seq".to_string(), Json::Int(*seq as i64)));
                members.push(("millis".to_string(), Json::Float(*millis)));
                members.push(("stats".to_string(), stats_json(stats)));
            }
            Event::Refuted {
                seq,
                millis,
                stats,
                open_branch,
                labels,
                primary,
                diagnosis,
            } => {
                members.push(("seq".to_string(), Json::Int(*seq as i64)));
                members.push(("millis".to_string(), Json::Float(*millis)));
                members.push(("stats".to_string(), stats_json(stats)));
                members.push((
                    "open_branch".to_string(),
                    match open_branch {
                        None => Json::Null,
                        Some(lines) => {
                            Json::Array(lines.iter().map(|l| Json::Str(l.clone())).collect())
                        }
                    },
                ));
                members.push((
                    "labels".to_string(),
                    Json::Array(labels.iter().map(|&id| Json::Int(id as i64)).collect()),
                ));
                members.push((
                    "primary".to_string(),
                    match primary {
                        Some(label) => label_to_json(label),
                        None => Json::Null,
                    },
                ));
                members.push((
                    "diagnosis".to_string(),
                    match diagnosis {
                        Some(d) => diagnosis_to_json(d),
                        None => Json::Null,
                    },
                ));
            }
            Event::FuelExhausted { seq, millis, stats } => {
                members.push(("seq".to_string(), Json::Int(*seq as i64)));
                members.push(("millis".to_string(), Json::Float(*millis)));
                members.push((
                    "reason".to_string(),
                    match stats.exhausted {
                        Some(reason) => Json::Str(reason.as_str().to_string()),
                        None => Json::Null,
                    },
                ));
                members.push(("stats".to_string(), stats_json(stats)));
            }
            Event::RestrictionViolation { seq, violations } => {
                members.push(("seq".to_string(), Json::Int(*seq as i64)));
                members.push((
                    "violations".to_string(),
                    Json::Array(violations.iter().map(|v| Json::Str(v.clone())).collect()),
                ));
            }
            Event::TranslationError { seq, message } => {
                members.push(("seq".to_string(), Json::Int(*seq as i64)));
                members.push(("message".to_string(), Json::Str(message.clone())));
            }
            Event::UnitError { unit, message } => {
                members.push(("unit".to_string(), Json::Str(unit.clone())));
                members.push(("message".to_string(), Json::Str(message.clone())));
            }
            Event::BatchSummary {
                obligations,
                cache_hits,
                prover_calls,
                tally,
                millis,
            } => {
                members.push(("obligations".to_string(), Json::Int(*obligations as i64)));
                members.push(("cache_hits".to_string(), Json::Int(*cache_hits as i64)));
                members.push(("prover_calls".to_string(), Json::Int(*prover_calls as i64)));
                members.push(("verified".to_string(), Json::Int(tally.0 as i64)));
                members.push(("rejected".to_string(), Json::Int(tally.1 as i64)));
                members.push(("unknown".to_string(), Json::Int(tally.2 as i64)));
                members.push(("millis".to_string(), Json::Float(*millis)));
            }
        }
        Json::Object(members)
    }
}

/// Renders events as JSON Lines (one compact object per line, trailing
/// newline included when nonempty).
pub fn render_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json().render());
        out.push('\n');
    }
    out
}

/// A durable streaming JSONL event writer.
///
/// Every [`write`](EventLogWriter::write) renders one event line and
/// flushes it to the OS before returning, so a request aborted mid-flight
/// (client disconnect, worker panic, process kill between requests) leaves
/// every event it had produced on disk — the log is never sitting in a
/// userspace buffer. Dropping the writer flushes again as a backstop for
/// any future buffered path.
#[derive(Debug)]
pub struct EventLogWriter {
    out: std::io::BufWriter<std::fs::File>,
    path: std::path::PathBuf,
}

impl EventLogWriter {
    /// Creates (truncating) the log at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn create(path: &std::path::Path) -> std::io::Result<EventLogWriter> {
        Ok(EventLogWriter {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
            path: path.to_path_buf(),
        })
    }

    /// The log's path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Appends one event line and flushes it.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the line cannot be written or flushed.
    pub fn write(&mut self, event: &Event) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut line = event.to_json().render();
        line.push('\n');
        self.out.write_all(line.as_bytes())?;
        self.out.flush()
    }

    /// Appends a batch of events, flushing after each line.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered.
    pub fn write_all(&mut self, events: &[Event]) -> std::io::Result<()> {
        for event in events {
            self.write(event)?;
        }
        Ok(())
    }
}

impl Drop for EventLogWriter {
    fn drop(&mut self) {
        use std::io::Write as _;
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn every_event_renders_one_parseable_line() {
        let events = vec![
            Event::ObligationStarted {
                seq: 0,
                unit: "corpus:example1".to_string(),
                proc: "push".to_string(),
                fingerprint: Some(crate::fingerprint::Fingerprint(5)),
            },
            Event::CacheHit {
                seq: 0,
                outcome: "proved",
                stats: Stats::default(),
            },
            Event::ProverProfile {
                seq: 0,
                cached: true,
                stats: Stats {
                    exhausted: Some(oolong_prover::UnknownReason::Instances),
                    ..Stats::default()
                },
            },
            Event::Verified {
                seq: 1,
                millis: 1.25,
                stats: Stats::default(),
            },
            Event::Refuted {
                seq: 2,
                millis: 0.5,
                stats: Stats::default(),
                open_branch: Some(vec!["x = y".to_string()]),
                labels: vec![0, 2],
                primary: Some(ObligationLabel {
                    id: 2,
                    kind: datagroups::ObligationKind::ModifiesViolation,
                    span: oolong_syntax::Span::new(10, 18),
                    detail: "write not covered".to_string(),
                }),
                diagnosis: None,
            },
            Event::FuelExhausted {
                seq: 3,
                millis: 9.0,
                stats: Stats::default(),
            },
            Event::RestrictionViolation {
                seq: 4,
                violations: vec!["pivot".to_string()],
            },
            Event::TranslationError {
                seq: 5,
                message: "boolean in value position".to_string(),
            },
            Event::UnitError {
                unit: "missing.oo".to_string(),
                message: "no such file".to_string(),
            },
            Event::BatchSummary {
                obligations: 6,
                cache_hits: 1,
                prover_calls: 3,
                tally: (2, 3, 1),
                millis: 12.0,
            },
        ];
        let rendered = render_jsonl(&events);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, event) in lines.iter().zip(&events) {
            let value = json::parse(line).expect("line parses");
            assert_eq!(
                value.get("event").and_then(Json::as_str),
                Some(event.kind())
            );
        }
    }
}
