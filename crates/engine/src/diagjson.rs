//! JSON forms of obligation labels and diagnoses.
//!
//! Shared by the verdict cache and the event log so a warm run replays a
//! cold run's refutation attribution — label ids, obligation kinds, and
//! the full source-level diagnosis — byte-for-byte.

use crate::json::Json;
use datagroups::{ObligationKind, ObligationLabel, Verdict};
use oolong_diagnose::{Diagnosis, Replay};
use oolong_syntax::Span;

/// The label of a refuted obligation as a JSON object.
pub fn label_to_json(label: &ObligationLabel) -> Json {
    Json::Object(vec![
        ("id".to_string(), Json::Int(label.id as i64)),
        (
            "kind".to_string(),
            Json::Str(label.kind.as_str().to_string()),
        ),
        ("start".to_string(), Json::Int(label.span.start as i64)),
        ("end".to_string(), Json::Int(label.span.end as i64)),
        ("detail".to_string(), Json::Str(label.detail.clone())),
    ])
}

/// The attribution members of a refuted obligation's JSON object: its
/// `obligation_kind`, `label_id` and full `label`. Empty unless the
/// verdict is a refutation with a primary label.
pub fn attribution_members(verdict: &Verdict) -> Vec<(String, Json)> {
    let Some(primary) = verdict.refutation().and_then(|r| r.primary.as_ref()) else {
        return Vec::new();
    };
    vec![
        (
            "obligation_kind".to_string(),
            Json::Str(primary.kind.as_str().to_string()),
        ),
        ("label_id".to_string(), Json::Int(primary.id as i64)),
        ("label".to_string(), label_to_json(primary)),
    ]
}

/// The refutation members of a cache entry and of a `refuted` event, in
/// this order: `open_branch`, `labels`, `primary` and `diagnosis`, each
/// `null` when absent.
pub(crate) fn refutation_members(
    open_branch: Option<&[String]>,
    labels: &[u32],
    primary: Option<&ObligationLabel>,
    diagnosis: Option<&Diagnosis>,
) -> [(String, Json); 4] {
    [
        (
            "open_branch".to_string(),
            open_branch.map_or(Json::Null, string_array),
        ),
        (
            "labels".to_string(),
            Json::Array(labels.iter().map(|&id| Json::Int(id as i64)).collect()),
        ),
        (
            "primary".to_string(),
            primary.map_or(Json::Null, label_to_json),
        ),
        (
            "diagnosis".to_string(),
            diagnosis.map_or(Json::Null, diagnosis_to_json),
        ),
    ]
}

/// Inverse of [`label_to_json`].
pub fn label_from_json(value: &Json) -> Option<ObligationLabel> {
    Some(ObligationLabel {
        id: value.get("id")?.as_u64()? as u32,
        kind: ObligationKind::parse(value.get("kind")?.as_str()?)?,
        span: Span::new(
            value.get("start")?.as_u64()? as u32,
            value.get("end")?.as_u64()? as u32,
        ),
        detail: value.get("detail")?.as_str()?.to_string(),
    })
}

fn replay_to_json(replay: &Replay) -> Json {
    match replay {
        Replay::Confirmed { oracle, witness } => Json::Object(vec![
            ("status".to_string(), Json::Str("confirmed".to_string())),
            ("oracle".to_string(), Json::Str(oracle.clone())),
            ("witness".to_string(), Json::Str(witness.clone())),
        ]),
        Replay::Spurious { attempts } => Json::Object(vec![
            ("status".to_string(), Json::Str("spurious".to_string())),
            ("attempts".to_string(), Json::Int(*attempts as i64)),
        ]),
        Replay::Unavailable { reason } => Json::Object(vec![
            ("status".to_string(), Json::Str("unavailable".to_string())),
            ("reason".to_string(), Json::Str(reason.clone())),
        ]),
    }
}

fn replay_from_json(value: &Json) -> Option<Replay> {
    match value.get("status")?.as_str()? {
        "confirmed" => Some(Replay::Confirmed {
            oracle: value.get("oracle")?.as_str()?.to_string(),
            witness: value.get("witness")?.as_str()?.to_string(),
        }),
        "spurious" => Some(Replay::Spurious {
            attempts: value.get("attempts")?.as_u64()? as usize,
        }),
        "unavailable" => Some(Replay::Unavailable {
            reason: value.get("reason")?.as_str()?.to_string(),
        }),
        _ => None,
    }
}

fn string_array(items: &[String]) -> Json {
    Json::Array(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn strings_from_json(value: &Json) -> Option<Vec<String>> {
    value
        .as_array()?
        .iter()
        .map(|s| Some(s.as_str()?.to_string()))
        .collect()
}

/// A full source-level diagnosis as a JSON object.
pub fn diagnosis_to_json(d: &Diagnosis) -> Json {
    Json::Object(vec![
        ("proc".to_string(), Json::Str(d.proc_name.clone())),
        ("kind".to_string(), Json::Str(d.kind.as_str().to_string())),
        (
            "label_id".to_string(),
            match d.label_id {
                Some(id) => Json::Int(id as i64),
                None => Json::Null,
            },
        ),
        ("start".to_string(), Json::Int(d.span.start as i64)),
        ("end".to_string(), Json::Int(d.span.end as i64)),
        ("line".to_string(), Json::Int(d.line as i64)),
        ("col".to_string(), Json::Int(d.col as i64)),
        ("snippet".to_string(), Json::Str(d.snippet.clone())),
        ("clause".to_string(), Json::Str(d.clause.clone())),
        ("touched".to_string(), string_array(&d.touched)),
        ("pre_store".to_string(), string_array(&d.pre_store)),
        ("args".to_string(), string_array(&d.args)),
        ("confirmed".to_string(), Json::Bool(d.confirmed())),
        ("replay".to_string(), replay_to_json(&d.replay)),
    ])
}

/// Inverse of [`diagnosis_to_json`].
pub fn diagnosis_from_json(value: &Json) -> Option<Diagnosis> {
    Some(Diagnosis {
        proc_name: value.get("proc")?.as_str()?.to_string(),
        kind: ObligationKind::parse(value.get("kind")?.as_str()?)?,
        label_id: match value.get("label_id")? {
            Json::Null => None,
            v => Some(v.as_u64()? as u32),
        },
        span: Span::new(
            value.get("start")?.as_u64()? as u32,
            value.get("end")?.as_u64()? as u32,
        ),
        line: value.get("line")?.as_u64()? as u32,
        col: value.get("col")?.as_u64()? as u32,
        snippet: value.get("snippet")?.as_str()?.to_string(),
        clause: value.get("clause")?.as_str()?.to_string(),
        touched: strings_from_json(value.get("touched")?)?,
        pre_store: strings_from_json(value.get("pre_store")?)?,
        args: strings_from_json(value.get("args")?)?,
        replay: replay_from_json(value.get("replay")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_diagnosis() -> Diagnosis {
        Diagnosis {
            proc_name: "sneaky".to_string(),
            kind: ObligationKind::ModifiesViolation,
            label_id: Some(2),
            span: Span::new(40, 48),
            line: 1,
            col: 41,
            snippet: "r.f := 3".to_string(),
            clause: "write to field `f` not covered by modifies list".to_string(),
            touched: vec!["#o·#f ≽ #o·#f".to_string()],
            pre_store: vec!["#1.f = 0".to_string()],
            args: vec!["r = #1".to_string()],
            replay: Replay::Confirmed {
                oracle: "first".to_string(),
                witness: "wrote #1.f outside the modifies license".to_string(),
            },
        }
    }

    #[test]
    fn diagnosis_round_trips() {
        let d = sample_diagnosis();
        let value = diagnosis_to_json(&d);
        assert_eq!(diagnosis_from_json(&value), Some(d));
    }

    #[test]
    fn label_round_trips() {
        let label = ObligationLabel {
            id: 7,
            kind: ObligationKind::OwnerExclusion,
            span: Span::new(3, 9),
            detail: "argument `t` may be an owned pivot value".to_string(),
        };
        let value = label_to_json(&label);
        assert_eq!(label_from_json(&value), Some(label));
    }

    #[test]
    fn spurious_and_unavailable_replays_round_trip() {
        for replay in [
            Replay::Spurious { attempts: 9 },
            Replay::Unavailable {
                reason: "no VC".to_string(),
            },
        ] {
            let d = Diagnosis {
                replay: replay.clone(),
                ..sample_diagnosis()
            };
            assert_eq!(diagnosis_from_json(&diagnosis_to_json(&d)), Some(d));
        }
    }
}
