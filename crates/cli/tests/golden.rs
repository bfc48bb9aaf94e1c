//! Golden tests pinning the machine-readable output schemas: `oolong
//! check --json` (including the divergence members of an unknown verdict)
//! and `oolong stats --json` (the aggregated prover telemetry).
//!
//! The `*.schema.txt` snapshots under `tests/golden/` at the repository
//! root record the *schema* — every key path with the JSON type of its
//! value — rather than the concrete numbers, so renaming or dropping a
//! field that downstream consumers parse fails loudly. Two `check --json`
//! invocations are also pinned byte for byte (`*.json`), numbers included.
//! To regenerate after a deliberate change, run the tests with
//! `UPDATE_GOLDEN=1`.

use oolong_engine::{json, Json};
use std::fmt::Write as _;
use std::process::{Command, Output};

fn oolong(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oolong"))
        .args(args)
        .output()
        .expect("spawns the oolong binary")
}

/// Renders the type skeleton of a JSON value: object keys in output order
/// with the type of each value; arrays by the schema of their first
/// element (they are homogeneous in all oolong output).
fn schema(value: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match value {
        Json::Null => {
            let _ = writeln!(out, "{pad}null");
        }
        Json::Bool(_) => {
            let _ = writeln!(out, "{pad}bool");
        }
        Json::Int(_) => {
            let _ = writeln!(out, "{pad}int");
        }
        Json::Float(_) => {
            let _ = writeln!(out, "{pad}float");
        }
        Json::Str(_) => {
            let _ = writeln!(out, "{pad}str");
        }
        Json::Array(items) => match items.first() {
            None => {
                let _ = writeln!(out, "{pad}array (empty)");
            }
            Some(first) => {
                let _ = writeln!(out, "{pad}array of:");
                schema(first, indent + 1, out);
            }
        },
        Json::Object(members) => {
            let _ = writeln!(out, "{pad}object:");
            for (key, member) in members {
                let _ = writeln!(out, "{pad}  {key}:");
                schema(member, indent + 2, out);
            }
        }
    }
}

fn assert_matches_snapshot(name: &str, value: &Json) {
    let mut actual = String::new();
    schema(value, 0, &mut actual);
    assert_matches_golden(name, &actual);
}

/// Compares `actual` with the golden file `tests/golden/<name>` byte for
/// byte. `UPDATE_GOLDEN=1 cargo test -p oolong-cli --test golden`
/// rewrites the files after a deliberate change; the diff is then
/// reviewed like any other source change.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/");
    let path = format!("{path}{name}");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual)
            .unwrap_or_else(|e| panic!("cannot update snapshot `{path}`: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read snapshot `{path}`: {e}\nactual:\n{actual}"));
    assert_eq!(
        actual, expected,
        "drift against `{path}`\nactual:\n{actual}"
    );
}

/// Pins the whole stdout of `oolong check` — verdicts, stats, labels and
/// diagnoses, not only the schema — for two invocations.
#[test]
fn check_json_output_is_byte_stable() {
    for (name, args) in [
        (
            "check_bad_call_explain.json",
            &["check", "corpus:section31_bad_call", "--json", "--explain"][..],
        ),
        (
            "check_example3_starved.json",
            &[
                "check",
                "corpus:example3",
                "--json",
                "--max-instances",
                "20",
            ][..],
        ),
    ] {
        let out = oolong(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} rejects or is unknown");
        assert_matches_golden(name, &String::from_utf8_lossy(&out.stdout));
    }
}

/// `check --json` on the §5 cyclic example under a starved budget: the
/// verdict is unknown, the stats carry the structured telemetry, and the
/// divergence member names the culprits.
#[test]
fn check_json_schema_is_stable() {
    let out = oolong(&[
        "check",
        "corpus:example3",
        "--json",
        "--max-instances",
        "20",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = json::parse(stdout.trim()).expect("check --json emits one JSON object");
    assert_matches_snapshot("check_example3_starved.schema.txt", &value);

    // Beyond the shape: the unknown verdict is attributed.
    let impls = value.get("impls").and_then(Json::as_array).expect("impls");
    let rep = impls.first().expect("one impl");
    assert_eq!(
        rep.get("verdict").and_then(Json::as_str),
        Some("unknown"),
        "starved example3 is unknown"
    );
    assert_eq!(
        rep.get("stats")
            .and_then(|s| s.get("exhausted"))
            .and_then(Json::as_str),
        Some("instances"),
        "the exhausted dimension is the instantiation budget"
    );
    let culprits = rep
        .get("divergence")
        .and_then(|d| d.get("culprits"))
        .and_then(Json::as_array)
        .expect("divergence culprits");
    assert!(!culprits.is_empty(), "culprits are listed");
    assert!(
        culprits
            .iter()
            .filter_map(Json::as_str)
            .any(|c| c.contains("[rep-inclusion]")),
        "a rep-inclusion axiom is named: {culprits:?}"
    );
}

/// `explain --json` on the §3.1 bad call: the full diagnosis object —
/// label, clause, touched chain, concrete pre-store, replay verdict.
#[test]
fn explain_json_schema_is_stable() {
    let out = oolong(&[
        "explain",
        "corpus:section31_bad_call",
        "--json",
        "--proc",
        "bad_caller",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = json::parse(stdout.trim()).expect("explain --json emits one JSON object");
    assert_matches_snapshot("explain_bad_call.schema.txt", &value);

    let rep = value
        .get("impls")
        .and_then(Json::as_array)
        .and_then(|i| i.first())
        .expect("the filtered impl");
    assert_eq!(
        rep.get("obligation_kind").and_then(Json::as_str),
        Some("owner-exclusion")
    );
    let diagnosis = rep.get("diagnosis").expect("diagnosis present");
    assert_eq!(
        diagnosis.get("snippet").and_then(Json::as_str),
        Some("w(st, st.vec)"),
        "the diagnosis blames the bad call site"
    );
    assert_eq!(
        diagnosis
            .get("replay")
            .and_then(|r| r.get("status"))
            .and_then(Json::as_str),
        Some("confirmed"),
        "the replay confirms the violation"
    );
}

/// `check --json` attribution on a refuted obligation: kind, label id,
/// and the label object are present even without `--explain`; the full
/// diagnosis member appears only with it.
#[test]
fn check_json_refuted_attribution_schema_is_stable() {
    let out = oolong(&["check", "corpus:section31_bad_call", "--json", "--explain"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = json::parse(stdout.trim()).expect("check --json emits one JSON object");
    let rep = value
        .get("impls")
        .and_then(Json::as_array)
        .and_then(|impls| {
            impls
                .iter()
                .find(|r| r.get("proc").and_then(Json::as_str) == Some("bad_caller"))
        })
        .expect("bad_caller report");
    assert_matches_snapshot("check_bad_call_refuted.schema.txt", rep);

    // Without --explain, attribution stays but the diagnosis is dropped.
    let plain = oolong(&["check", "corpus:section31_bad_call", "--json"]);
    let stdout = String::from_utf8_lossy(&plain.stdout);
    let value = json::parse(stdout.trim()).expect("one JSON object");
    let rep = value
        .get("impls")
        .and_then(Json::as_array)
        .and_then(|impls| {
            impls
                .iter()
                .find(|r| r.get("proc").and_then(Json::as_str) == Some("bad_caller"))
        })
        .expect("bad_caller report");
    assert_eq!(
        rep.get("obligation_kind").and_then(Json::as_str),
        Some("owner-exclusion")
    );
    assert!(rep.get("label_id").is_some(), "label id survives");
    assert!(rep.get("diagnosis").is_none(), "diagnosis needs --explain");
}

/// A cached diagnosis replays byte-for-byte: two `explain --json` runs
/// against the same cache directory differ only in the cache-hit flag.
#[test]
fn explain_json_is_byte_stable_across_cache() {
    let dir = std::env::temp_dir().join(format!("oolong-golden-{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf-8 temp path");
    let run = || {
        let out = oolong(&[
            "explain",
            "corpus:section31_bad_call",
            "--json",
            "--cache-dir",
            dir_s,
        ]);
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let cold = run();
    let warm = run();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        warm.contains("\"cache_hit\":true"),
        "second run is served from the cache:\n{warm}"
    );
    assert_eq!(
        cold.replace("\"cache_hit\":false", "\"cache_hit\":true"),
        warm,
        "the cached diagnosis must replay byte-for-byte"
    );
}

/// `stats --json`: program shape plus the aggregated prover telemetry.
#[test]
fn stats_json_schema_is_stable() {
    let out = oolong(&["stats", "corpus:example1", "--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = json::parse(stdout.trim()).expect("stats --json emits one JSON object");
    assert_matches_snapshot("stats_example1.schema.txt", &value);

    let prover = value.get("prover").expect("prover section");
    assert_eq!(
        prover.get("obligations").and_then(Json::as_u64),
        Some(1),
        "example1 has one obligation"
    );
    assert!(
        prover.get("instances").and_then(Json::as_u64).unwrap_or(0) > 0,
        "instantiations were counted"
    );
}

/// The human-readable `stats` output names the hottest axioms.
#[test]
fn stats_text_reports_prover_telemetry() {
    let out = oolong(&["stats", "corpus:example1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "spec overhead:",
        "instantiations by axiom kind:",
        "rep-inclusion:",
        "hottest axioms:",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
}

/// `infer --json` on a stripped paper program: proposals with span-anchored
/// edits, provenance, and the round/fixpoint/verification summary.
#[test]
fn infer_json_schema_is_stable() {
    let out = oolong(&["infer", "stripped:example1", "--json", "--no-cache"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = json::parse(stdout.trim()).expect("infer --json emits one JSON object");
    assert_matches_snapshot("infer_stripped.schema.txt", &value);

    assert_eq!(value.get("verified"), Some(&Json::Bool(true)));
    assert_eq!(value.get("fixpoint"), Some(&Json::Bool(true)));
    let proposals = value
        .get("proposals")
        .and_then(Json::as_array)
        .expect("proposals");
    assert_eq!(proposals.len(), 1, "example1 needs exactly one entry");
    let p = &proposals[0];
    assert_eq!(
        p.get("kind").and_then(Json::as_str),
        Some("modifies-extension")
    );
    assert_eq!(p.get("target").and_then(Json::as_str), Some("t.c.d.g"));
    assert_eq!(p.get("provenance").and_then(Json::as_str), Some("static"));
    assert!(
        p.get("edit").and_then(|e| e.get("insert")).is_some(),
        "the edit is machine-applicable"
    );
}

/// `infer --json` on a generated unannotated program: the accuracy member
/// compares the inferred frames against generator ground truth.
#[test]
fn infer_json_accuracy_schema_is_stable() {
    let out = oolong(&["infer", "unannotated:7", "--json", "--no-cache"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = json::parse(stdout.trim()).expect("infer --json emits one JSON object");
    assert_matches_snapshot("infer_unannotated.schema.txt", &value);

    assert_eq!(value.get("verified"), Some(&Json::Bool(true)));
    let acc = value.get("accuracy").expect("accuracy present");
    assert_eq!(
        acc.get("procs").and_then(Json::as_u64),
        acc.get("exact").and_then(Json::as_u64),
        "every inferred frame matches ground truth exactly"
    );
}
