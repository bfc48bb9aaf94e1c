//! `oolong_bench` — the benchmark of the oolong checker.
//!
//! ```text
//! oolong_bench --workload NAME --seed N --seconds S --trace 0|1
//! oolong_bench run [--seed N] [--seconds S] [--runs K] [--trace] [--out FILE]
//! oolong_bench compare A.json B.json
//! oolong_bench reference
//! ```
//!
//! The first form runs one workload in this process and prints its
//! metrics, then one JSON result line: `correct`, `attempted`, `failed`,
//! and `metrics` — the end-to-end metrics of `BENCHMARK.json` untraced,
//! its per-layer metrics with `--trace 1`, which also writes a Chrome
//! trace under `target/oolong-bench/`. `run` runs workloads each in a
//! child process of its own (so peak memory is per workload) and prints
//! every metric with its unit and bound; `compare` compares two run
//! files; `reference` times the machine-speed calibration computation
//! once (see `calibrate`). The exit code is nonzero when any answer is
//! wrong.
//!
//! Workloads: `paper_cold`, `scaled_cold`, `edit_loop`, `serve_mix`. See
//! README.md for why each was chosen and what each metric means.

mod calibrate;
mod compare;
mod inputs;
mod measure;
mod mirror;
mod serve;
mod trace;
mod truth;
mod workloads;

use compare::Spec;
use measure::{json_number, median, Outcome};
use mirror::ratio;
use oolong_engine::{json, Json};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::TraceLog;

/// The workloads, in the order `run` executes them.
const WORKLOADS: [&str; 4] = ["paper_cold", "scaled_cold", "edit_loop", "serve_mix"];

/// Measured seconds per run when neither `--seconds` nor `BENCHMARK.json`
/// says otherwise.
const DEFAULT_SECONDS: f64 = 30.0;

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `oolong` binary `serve_mix` starts as its daemon: the one
    /// built next to this binary.
    pub oolong: PathBuf,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {name}")),
        None => Ok(default),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => compare::cmd_compare(&args[1..]),
        Some("reference") => {
            println!("{}", calibrate::reference_ms());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => cmd_workload(&args),
        _ => Err(
            "usage: oolong_bench --workload NAME --seed N --seconds S --trace 0|1 \
                  | run [--seed N] [--seconds S] [--runs K] [--trace] [--out FILE] \
                  | compare A.json B.json"
                .to_string(),
        ),
    };
    result.unwrap_or_else(|message| {
        eprintln!("oolong_bench: {message}");
        ExitCode::from(2)
    })
}

/// Runs one workload in this process.
fn cmd_workload(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("--workload NAME is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (have {WORKLOADS:?})"
        ));
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let oolong = std::env::current_exe()
        .map_err(|e| format!("cannot locate this binary: {e}"))?
        .with_file_name("oolong");
    let cfg = Config {
        workload: workload.to_string(),
        seed: parsed(args, "--seed", 1)?,
        seconds: parsed(args, "--seconds", DEFAULT_SECONDS)?,
        trace,
        oolong,
    };
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }

    let mut out = Outcome::passing();
    let log = match cfg.workload.as_str() {
        "paper_cold" => workloads::paper_cold(&cfg, &mut out),
        "scaled_cold" => workloads::scaled_cold(&cfg, &mut out),
        "edit_loop" => workloads::edit_loop(&cfg, &mut out),
        _ => serve::serve_mix(&cfg, &mut out)?,
    };
    if let Some(log) = log {
        let path = PathBuf::from("target/oolong-bench")
            .join(format!("{}-seed{}.trace.json", cfg.workload, cfg.seed));
        trace::write_chrome_trace(&path, &log.threads)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.notes
            .push(format!("trace written to {}", path.display()));
        let end_to_end = std::mem::take(&mut out.metrics);
        out.extra.splice(0..0, end_to_end);
        push_layers(&mut out, &log);
    }

    for note in &out.notes {
        println!("# {}: {note}", cfg.workload);
    }
    for metric in out.metrics.iter().chain(&out.extra) {
        println!(
            "{} {} = {} {}",
            cfg.workload,
            metric.name,
            json_number(metric.value),
            metric.unit
        );
    }
    println!("{}", out.result_line());
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The per-layer metrics, in `BENCHMARK.json` order: the median over
/// traced passes (rounds, requests) of each layer's self time per pass,
/// mean counters per pass, and ratios over the whole traced run.
fn push_layers(out: &mut Outcome, log: &TraceLog) {
    let l = &log.layers;
    let ms = [
        ("prover.prove_ms", "prover.prove"),
        ("prover.context_build_ms", "prover.context"),
        ("engine.context_key_ms", "engine.context_key"),
        ("engine.context_wait_ms", "engine.context_wait"),
        ("syntax.parse_ms", "syntax.parse"),
        ("sema.analyze_ms", "sema.analyze"),
        ("core.restrict_ms", "core.restrict"),
        ("core.vcgen_ms", "core.vcgen"),
        ("core.slice_ms", "core.slice"),
        ("engine.fingerprint_ms", "engine.fingerprint"),
        ("engine.store_get_ms", "engine.store_get"),
        ("engine.store_put_ms", "engine.store_put"),
        ("engine.events_ms", "engine.events"),
    ];
    for (metric, span) in ms {
        out.push(metric, l.ms(span), "ms");
    }
    out.push("prover.prove_max_ms", median(&l.prove_max_ms), "ms");
    out.push("prover.instances", l.per_pass(l.instances), "count");
    out.push(
        "prover.presat_instances",
        l.per_pass(l.presat_instances),
        "count",
    );
    out.push(
        "prover.trigger_matches",
        l.per_pass(l.trigger_matches),
        "count",
    );
    out.push("prover.branches", l.per_pass(l.branches), "count");
    out.push("prover.unknown", l.per_pass(l.unknown), "count");
    out.push("engine.prover_calls", l.per_pass(l.prover_calls), "count");
    out.push("core.vc_hypotheses", l.per_pass(l.hypotheses), "count");
    out.push(
        "core.slice_kept_ratio",
        ratio(l.kept, l.background),
        "ratio",
    );
    out.push("engine.store_hit_ratio", ratio(l.hits, l.lookups), "ratio");
    out.push(
        "engine.context_hit_ratio",
        ratio(l.warm_contexts, l.prover_calls),
        "ratio",
    );
    out.push("bench.trace_overhead_ratio", log.overhead(), "ratio");
    out.push("bench.trace_coverage_ratio", l.coverage(), "ratio");
    out.notes.push(format!("{} traced passes", l.passes));
}

/// Runs workloads in child processes, prints every metric with its unit
/// and bound, and optionally writes the results as a run file.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load().ok();
    let default_seconds = spec.as_ref().map_or(DEFAULT_SECONDS, |s| s.run_seconds);
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", default_seconds)?;
    let runs: u64 = parsed(args, "--runs", 1)?;
    let traced = args.iter().any(|a| a == "--trace");
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;

    let mut all_correct = true;
    let mut records = Vec::new();
    for run in 0..runs {
        for workload in WORKLOADS {
            for trace in [false, true] {
                if trace && !traced {
                    continue;
                }
                let child = Command::new(&exe)
                    .args(["--workload", workload])
                    .args(["--seed", &(seed + run).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                let last = stdout.lines().last().unwrap_or("");
                let result = json::parse(last)
                    .ok()
                    .filter(|r| r.get("metrics").is_some());
                let correct = child.status.success()
                    && matches!(
                        result.as_ref().and_then(|r| r.get("correct")),
                        Some(Json::Bool(true))
                    );
                all_correct &= correct;
                for line in stdout.lines().filter(|l| l.starts_with('#')) {
                    println!("{line}");
                }
                print_result(workload, seed + run, trace, result.as_ref(), spec.as_ref());
                // The metrics a workload prints beyond its result line.
                let declared = |name: &str| {
                    result
                        .as_ref()
                        .and_then(|r| r.get("metrics"))
                        .and_then(|m| m.get(name))
                        .is_some()
                };
                for line in stdout.lines().filter(|l| !l.starts_with('#') && *l != last) {
                    let mut words = line.split_whitespace().skip(1);
                    if let (Some(name), Some("="), Some(value), unit) =
                        (words.next(), words.next(), words.next(), words.next())
                    {
                        if !declared(name) {
                            println!("  {name:<28} {value:>18} {}", unit.unwrap_or(""));
                        }
                    }
                }
                records.push(Json::Object(vec![
                    ("workload".to_string(), Json::Str(workload.to_string())),
                    ("seed".to_string(), Json::Int((seed + run) as i64)),
                    ("trace".to_string(), Json::Bool(trace)),
                    ("result".to_string(), result.unwrap_or(Json::Null)),
                ]));
            }
        }
    }
    if let Some(path) = flag(args, "--out") {
        let file = Json::Object(vec![("runs".to_string(), Json::Array(records))]);
        std::fs::write(path, file.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("oolong_bench: a workload gave a wrong answer or failed to run");
        ExitCode::FAILURE
    })
}

fn print_result(
    workload: &str,
    seed: u64,
    trace: bool,
    result: Option<&Json>,
    spec: Option<&Spec>,
) {
    let Some(result) = result else {
        println!("{workload} seed {seed}: no result");
        return;
    };
    let count = |k: &str| result.get(k).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "{workload} seed {seed}{}: correct={} attempted={} failed={} failed_ratio={}",
        if trace { " (traced)" } else { "" },
        matches!(result.get("correct"), Some(Json::Bool(true))),
        count("attempted"),
        count("failed"),
        json_number(ratio(count("failed"), count("attempted"))),
    );
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        return;
    };
    for (name, metric) in metrics {
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        let declared = spec.and_then(|s| s.metric(name));
        let bound = match declared {
            Some(m) => match m.bound {
                Some(b) => format!(
                    "bound {b}, {} is better",
                    if m.lower_is_better { "lower" } else { "higher" }
                ),
                None => format!(
                    "{} is better",
                    if m.lower_is_better { "lower" } else { "higher" }
                ),
            },
            None => "not declared".to_string(),
        };
        println!(
            "  {name:<28} {:>18} {unit:<6} ({bound})",
            json_number(value)
        );
    }
}
