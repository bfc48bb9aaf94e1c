//! End-to-end tests of `oolong batch` / `oolong recheck`: a cold batch
//! over embedded corpus programs, then a warm recheck against the same
//! cache directory, with the zero-prover-call claim checked by reading the
//! JSONL event log the CLI wrote.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn oolong(args: &[&str], dir: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oolong"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawns the oolong binary")
}

fn event_count(jsonl: &str, kind: &str) -> usize {
    let needle = format!("{{\"event\":\"{kind}\"");
    jsonl
        .lines()
        .filter(|line| line.starts_with(&needle))
        .count()
}

#[test]
fn batch_then_recheck_is_warm() {
    let dir = std::env::temp_dir().join(format!("oolong-cli-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");

    let cold = oolong(
        &[
            "batch",
            "corpus:example1",
            "corpus:stack_module",
            "--events",
            "cold.jsonl",
        ],
        &dir,
    );
    assert!(
        cold.status.success(),
        "cold batch: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let stdout = String::from_utf8_lossy(&cold.stdout);
    assert!(
        stdout.contains("prover calls"),
        "summary line present: {stdout}"
    );

    let warm = oolong(&["recheck", "--events", "warm.jsonl", "--json"], &dir);
    assert!(
        warm.status.success(),
        "recheck: {}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let report = String::from_utf8_lossy(&warm.stdout);
    assert!(
        report.contains("\"prover_calls\":0"),
        "warm recheck is all cache: {report}"
    );

    let log = std::fs::read_to_string(dir.join("warm.jsonl")).expect("event log written");
    assert!(event_count(&log, "obligation_started") > 0);
    assert_eq!(
        event_count(&log, "verified"),
        0,
        "no prover verdicts on a warm run"
    );
    assert_eq!(event_count(&log, "refuted"), 0);
    assert_eq!(event_count(&log, "fuel_exhausted"), 0);
    assert_eq!(
        event_count(&log, "cache_hit"),
        event_count(&log, "obligation_started")
    );
    assert_eq!(event_count(&log, "batch_summary"), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recheck_without_a_batch_is_an_error() {
    let dir = std::env::temp_dir().join(format!("oolong-cli-norecheck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let out = oolong(&["recheck"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no batch recorded"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_json_is_parseable_shape() {
    let dir = std::env::temp_dir().join(format!("oolong-cli-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let out = oolong(&["check", "corpus:example1", "--json"], &dir);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_end().starts_with('{') && stdout.trim_end().ends_with('}'));
    assert!(stdout.contains("\"impls\":"));
    assert!(stdout.contains("\"summary\":"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_are_rejected() {
    let dir = std::env::temp_dir().join(format!("oolong-cli-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    // A retired option and a typo of a value option: both must fail with
    // exit 2 before any checking runs, not silently check something else.
    for args in [
        &["batch", "corpus:example1", "--no-slice-axioms"][..],
        &["check", "corpus:example1", "--max-instance", "5"][..],
    ] {
        let out = oolong(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing was checked");
    }
    assert!(
        !dir.join(".oolong-cache").exists(),
        "a rejected batch writes no cache"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn modular_check_rejects_report_flags() {
    // `check --modular` prints only its text report; a flag asking for
    // another report is an error naming the flag, not silently dropped.
    let dir = std::env::temp_dir();
    for unsupported in ["--json", "--explain", "--explain-unknown"] {
        let args = ["check", "corpus:modular_stack", "--modular", unsupported];
        let out = oolong(&args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(unsupported), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing was checked");
    }
    let out = oolong(&["check", "corpus:modular_stack", "--modular"], &dir);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("module stack_impl:"));
}

#[test]
fn vc_honours_checking_flags() {
    let dir = std::env::temp_dir();
    let vc = |flag: Option<&str>| {
        let mut args = vec!["vc", "corpus:section30_q"];
        args.extend(flag);
        let out = oolong(&args, &dir);
        assert!(out.status.success(), "{args:?}");
        String::from_utf8(out.stdout).expect("utf-8 VC")
    };
    let plain = vc(None);
    assert!(
        plain.starts_with("=== VC for impl q (33 hypotheses)"),
        "{plain}"
    );
    // The naive baseline swaps the alias-restriction axioms for the
    // closed-world ones and drops the owner-exclusion assumption;
    // `--null-checks` adds definedness conditions to the goal.
    for flag in ["--naive", "--null-checks"] {
        assert_ne!(vc(Some(flag)), plain, "`vc {flag}` printed the default VC");
    }
}

/// A reader that goes away early (`oolong vc … | head -5`) ends the
/// command quietly: exit status 141, and no panic or backtrace on stderr.
#[test]
fn closed_stdout_ends_the_command_quietly() {
    let dir = std::env::temp_dir().join(format!("oolong-cli-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    // Forty VCs print far more than a pipe buffers, so with nobody reading
    // some write must fail, however fast the child runs.
    let mut source = String::from("group g\nfield f in g\n");
    for i in 0..40 {
        source.push_str(&format!(
            "proc p{i}(r) modifies r.g\nimpl p{i}(r) {{ r.f := {i} }}\n"
        ));
    }
    std::fs::write(dir.join("wide.oo"), source).expect("writes the unit");
    let mut child = Command::new(env!("CARGO_BIN_EXE_oolong"))
        .args(["vc", "wide.oo"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns the oolong binary");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("waits for oolong");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert_eq!(output.status.code(), Some(141));
    let _ = std::fs::remove_dir_all(&dir);
}
