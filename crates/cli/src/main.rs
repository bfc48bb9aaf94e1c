//! `oolong` — command-line interface to the data-group side-effect checker.
//!
//! ```text
//! oolong check   <file|corpus:NAME> [--modular] [--naive] [--null-checks] [--json] [--explain]
//!                [--explain-unknown]
//! oolong infer   <file|corpus:NAME|stripped:NAME|unannotated:SEED> [--proc NAME] [--reads] [--apply] [--json]
//! oolong explain <file|corpus:NAME> [--proc NAME] [--cache-dir DIR] [--json]
//! oolong batch   <files...> [--cache-dir DIR] [--workers N] [--events PATH] [--json] [--explain]
//! oolong recheck [--cache-dir DIR] [--events PATH] [--json] [--explain]
//! oolong serve   --socket PATH [--cache-dir DIR] [--workers N] [--queue N] [--json-log]
//! oolong client  <request.json> | --eval '<json>' [--socket PATH]
//! oolong run     <file|corpus:NAME> --proc NAME [--seeds N] [--owner-exclusion]
//! oolong vc      <file|corpus:NAME> [--proc NAME] [--naive] [--null-checks]
//! oolong stats   <file|corpus:NAME> [--json]
//! oolong axioms  <file|corpus:NAME> [--json]
//! oolong corpus
//! ```
//!
//! Sources can be file paths or `corpus:NAME` references into the embedded
//! paper corpus (see `oolong corpus`). `check` runs one unit through the
//! incremental engine with an in-memory cache (`--modular` checks each
//! module against its own scope instead); `batch` checks many units
//! through the same engine, persisting verdicts under `--cache-dir`;
//! `recheck` repeats the last recorded batch against the same cache, so an
//! unchanged program verifies without a single prover call. `serve` keeps
//! a resident daemon on a Unix socket answering the same requests over
//! newline-delimited JSON through a shared in-memory + on-disk verdict
//! cache; `client` scripts a session against it. `explain`
//! diagnoses every rejected implementation: it resolves the refuting
//! branch's position label to a source command, concretizes the prover's
//! candidate model into an initial store, and replays it through the
//! interpreter to confirm (or demote) the counterexample. `check
//! --explain-unknown` attributes a budget-exhausted verdict to the
//! quantified axioms that consumed the budget; `stats` aggregates the same
//! per-axiom telemetry across every obligation of a program. `axioms`
//! dumps every background axiom's declared matching patterns (PATS/MPAT),
//! its scheduling phase, and where its instantiations landed (background
//! pre-saturation vs obligation frames) across the program's proofs.
//!
//! Everything a command prints goes to standard output through one writer
//! ([`emit`]). When standard output closes early — the reader went away,
//! as in `oolong vc corpus:example1 | head -5` — the command prints nothing
//! more, finishes what it was doing (a batch still writes its cache and
//! manifest), and exits with status 141 ([`EXIT_BROKEN_PIPE`]), the status
//! a shell reports for a process ended by `SIGPIPE`, without a message.

use datagroups::{overhead, prover_metrics, BackgroundSlice, CheckOptions, Checker};
use oolong_diagnose::{Diagnosis, Replay};
use oolong_engine::{BatchUnit, Engine, EngineOptions, Json};
use oolong_interp::{ExecConfig, Interp, RngOracle, RunOutcome};
use oolong_sema::Scope;
use oolong_serve::{Client, ServeOptions, Server};
use oolong_syntax::parse_program;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;

/// The exit status of a command whose standard output closed before it
/// finished printing: 128 + `SIGPIPE`.
const EXIT_BROKEN_PIPE: u8 = 141;

/// The error that closed standard output, once a write has failed.
static STDOUT_FAILED: OnceLock<io::ErrorKind> = OnceLock::new();

/// Writes to standard output, the only way the CLI prints. After a failed
/// write, further output is dropped; [`main`] turns the failure into the
/// exit status.
fn emit(args: fmt::Arguments<'_>) {
    if STDOUT_FAILED.get().is_some() {
        return;
    }
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        let _ = STDOUT_FAILED.set(e.kind());
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    };
    // Line-buffered output still pending must reach the pipe (or fail)
    // before the status is chosen.
    if let Err(e) = io::stdout().lock().flush() {
        let _ = STDOUT_FAILED.set(e.kind());
    }
    match STDOUT_FAILED.get() {
        None => code,
        Some(io::ErrorKind::BrokenPipe) => ExitCode::from(EXIT_BROKEN_PIPE),
        Some(kind) => {
            eprintln!("error: cannot write to standard output: {kind}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage:
  oolong check   <file|corpus:NAME> [--modular] [--naive] [--null-checks] [--explain]
                 [--explain-unknown] [--json] [--max-instances N] [--max-gen N]
  oolong explain <file|corpus:NAME> [--proc NAME] [--cache-dir DIR] [--json]
                 [--naive] [--null-checks] [--max-instances N] [--max-gen N]
  oolong infer   <file|corpus:NAME|stripped:NAME|unannotated:SEED> [--proc NAME]
                 [--reads] [--apply] [--json] [--max-rounds N] [--cache-dir DIR] [--no-cache]
                 [--naive] [--null-checks] [--max-instances N] [--max-gen N]
  oolong batch   <files|corpus:NAMEs...> [--cache-dir DIR] [--no-cache] [--workers N]
                 [--events PATH] [--json] [--explain] [--naive] [--null-checks]
                 [--max-instances N] [--max-gen N]
  oolong recheck [--cache-dir DIR] [--events PATH] [--json] [--explain]
  oolong serve   --socket PATH [--cache-dir DIR] [--no-cache] [--workers N] [--queue N]
                 [--mem-cap N] [--events PATH] [--json-log] [--quiet] [--naive]
                 [--null-checks] [--max-instances N] [--max-gen N]
  oolong client  <request.json> | --eval '<json>' [--socket PATH]
  oolong run     <file|corpus:NAME> --proc NAME [--seeds N] [--owner-exclusion]
  oolong vc      <file|corpus:NAME> [--proc NAME] [--naive] [--null-checks]
  oolong stats   <file|corpus:NAME> [--json] [--naive] [--null-checks]
                 [--max-instances N] [--max-gen N]
  oolong axioms  <file|corpus:NAME> [--json] [--naive] [--null-checks]
                 [--max-instances N] [--max-gen N]
  oolong corpus"
        .to_string()
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    check_flags(&args[1..])?;
    match cmd.as_str() {
        "check" => cmd_check(&args[1..]),
        "explain" => cmd_explain(&args[1..]),
        "infer" => cmd_infer(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "recheck" => cmd_recheck(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "client" => cmd_client(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "vc" => cmd_vc(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "axioms" => cmd_axioms(&args[1..]),
        "corpus" => cmd_corpus(),
        "--help" | "-h" | "help" => {
            outln!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{other}`\n{}", usage())),
    }
}

fn load_source(spec: &str) -> Result<String, String> {
    if let Some(name) = spec.strip_prefix("corpus:") {
        return oolong_corpus::by_name(name)
            .map(|p| p.source.to_string())
            .ok_or_else(|| format!("no corpus program named `{name}` (try `oolong corpus`)"));
    }
    std::fs::read_to_string(spec).map_err(|e| format!("cannot read `{spec}`: {e}"))
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Names of options that consume a following value.
const VALUE_OPTS: &[&str] = &[
    "--max-instances",
    "--max-gen",
    "--max-rounds",
    "--proc",
    "--seeds",
    "--cache-dir",
    "--workers",
    "--events",
    "--socket",
    "--queue",
    "--mem-cap",
    "--eval",
];

/// Names of options that take no value.
const FLAGS: &[&str] = &[
    "--apply",
    "--explain",
    "--explain-unknown",
    "--json",
    "--json-log",
    "--modular",
    "--naive",
    "--no-cache",
    "--null-checks",
    "--owner-exclusion",
    "--quiet",
    "--reads",
];

/// Rejects any `--option` that is neither in [`FLAGS`] nor in
/// [`VALUE_OPTS`], so a typo or a retired option fails instead of silently
/// running something else.
fn check_flags(args: &[String]) -> Result<(), String> {
    let mut skip_next = false;
    for a in args {
        if std::mem::take(&mut skip_next) {
            continue;
        }
        if VALUE_OPTS.contains(&a.as_str()) {
            skip_next = true;
        } else if a.starts_with("--") && !FLAGS.contains(&a.as_str()) {
            return Err(format!("unknown flag `{a}`\n{}", usage()));
        }
    }
    Ok(())
}

fn opt_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_OPTS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            out.push(a.as_str());
        }
    }
    out
}

fn positional(args: &[String]) -> Result<&str, String> {
    positionals(args)
        .first()
        .copied()
        .ok_or_else(|| format!("missing input\n{}", usage()))
}

/// Parses the checking options shared by `check` and `batch`.
fn check_options(args: &[String]) -> Result<CheckOptions, String> {
    let mut options = CheckOptions {
        naive: flag(args, "--naive"),
        null_checks: flag(args, "--null-checks"),
        ..CheckOptions::default()
    };
    if let Some(n) = opt_value(args, "--max-instances") {
        options.budget.max_instances = n.parse().map_err(|_| "bad --max-instances")?;
    }
    if let Some(n) = opt_value(args, "--max-gen") {
        options.budget.max_term_gen = n.parse().map_err(|_| "bad --max-gen")?;
    }
    Ok(options)
}

/// `oolong check` — one unit through the engine, with an in-memory cache
/// and one worker per core; `--explain` turns on the engine's diagnosis.
fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let spec = positional(args)?;
    let source = load_source(spec)?;
    let options = check_options(args)?;
    let explain = flag(args, "--explain");
    let engine = Engine::new(EngineOptions {
        check: options,
        workers: 0,
        cache_dir: None,
        diagnose: explain,
    })
    .map_err(|e| format!("cannot open cache: {e}"))?;
    if flag(args, "--modular") {
        return check_modular(&engine, spec, &source, args);
    }
    let report = engine.check_source(spec, &source);
    if let Some(error) = report.unit_errors.first() {
        return Err(error.message.clone());
    }
    let status = if report.all_verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    if flag(args, "--json") {
        outln!("{}", oolong_serve::check_result_json(&report).render());
        return Ok(status);
    }
    let explain_unknown = flag(args, "--explain-unknown");
    for o in &report.obligations {
        out!("impl {}: {}", o.proc_name, o.verdict);
        if let Some(stats) = o.verdict.stats() {
            out!("  [{stats}]");
        }
        outln!();
        if explain {
            if let Some(branch) = o.verdict.open_branch() {
                outln!("  unrefuted scenario:");
                for line in branch {
                    outln!("    {line}");
                }
            }
            for line in o.diagnosis.iter().flat_map(render_diagnosis) {
                outln!("  {line}");
            }
        }
        if explain_unknown {
            if let Some(divergence) = o.verdict.divergence() {
                for line in divergence.to_string().lines() {
                    outln!("  {line}");
                }
            }
        }
    }
    let (v, r, u) = report.tally();
    outln!("{v} verified, {r} rejected, {u} unknown");
    Ok(status)
}

/// `oolong check --modular` — each module against its own scope, printed
/// as one section per module. The text report is the only output.
fn check_modular(
    engine: &Engine,
    spec: &str,
    source: &str,
    args: &[String],
) -> Result<ExitCode, String> {
    if let Some(unsupported) = ["--json", "--explain", "--explain-unknown"]
        .into_iter()
        .find(|f| flag(args, f))
    {
        return Err(format!("`--modular` does not support `{unsupported}`"));
    }
    let program = parse_program(source).map_err(|e| e.render(source))?;
    let modules = engine
        .check_modular(spec, source, &program)
        .map_err(|e| e.render(source))?;
    if let Some(error) = modules.iter().find_map(|(_, r)| r.unit_errors.first()) {
        return Err(error.message.clone());
    }
    let sections: Vec<String> = modules
        .iter()
        .map(|(name, report)| {
            let shown = if name.is_empty() { "(top level)" } else { name };
            let mut section = format!("module {shown}:");
            for o in &report.obligations {
                section += &format!("\n  impl {}: {}", o.proc_name, o.verdict);
            }
            if report.obligations.is_empty() {
                section += "\n  (no implementations)";
            }
            section
        })
        .collect();
    outln!("{}", sections.join("\n"));
    Ok(if modules.iter().all(|(_, r)| r.all_verified()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Human-readable lines for one diagnosis.
fn render_diagnosis(d: &Diagnosis) -> Vec<String> {
    let mut out = vec![
        format!("{} at line {}, col {}:", d.kind.as_str(), d.line, d.col),
        format!("  | {}", d.snippet),
        format!("  clause: {}", d.clause),
    ];
    if !d.touched.is_empty() {
        out.push(format!("  touched: {}", d.touched.join(", ")));
    }
    if !d.pre_store.is_empty() {
        out.push(format!("  pre-store: {}", d.pre_store.join(", ")));
    }
    if !d.args.is_empty() {
        out.push(format!("  args: {}", d.args.join(", ")));
    }
    out.push(match &d.replay {
        Replay::Confirmed { oracle, witness } => {
            format!("  replay: confirmed ({oracle} oracle) — {witness}")
        }
        Replay::Spurious { attempts } => {
            format!("  replay: spurious (prover-internal) after {attempts} runs")
        }
        Replay::Unavailable { reason } => format!("  replay: unavailable — {reason}"),
    });
    out
}

/// `oolong explain` — diagnose every rejected implementation through the
/// engine (so repeated explains of an unchanged program replay the cached
/// diagnosis byte-for-byte instead of re-proving and re-running replay).
fn cmd_explain(args: &[String]) -> Result<ExitCode, String> {
    let spec = positional(args)?;
    let source = load_source(spec)?;
    let options = EngineOptions {
        check: check_options(args)?,
        workers: 0,
        cache_dir: opt_value(args, "--cache-dir").map(PathBuf::from),
        diagnose: true,
    };
    let engine = Engine::new(options).map_err(|e| format!("cannot open cache: {e}"))?;
    let report = engine.check_source(spec, &source);
    if let Some(error) = report.unit_errors.first() {
        return Err(error.message.clone());
    }
    let filter = opt_value(args, "--proc");
    let obligations: Vec<_> = report
        .obligations
        .iter()
        .filter(|o| filter.as_deref().is_none_or(|f| o.proc_name == f))
        .collect();
    if obligations.is_empty() {
        return Err(match filter {
            Some(f) => format!("no implementation of `{f}` in `{spec}`"),
            None => format!("no implementations in `{spec}`"),
        });
    }
    let all_verified = obligations.iter().all(|o| o.verdict.is_verified());
    if flag(args, "--json") {
        outln!(
            "{}",
            oolong_serve::explain_result_json(spec, &report, filter.as_deref()).render()
        );
        return Ok(if all_verified {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    for o in &obligations {
        out!("impl {}: {}", o.proc_name, o.verdict);
        if o.cache_hit {
            out!("  [cached]");
        }
        outln!();
        match &o.diagnosis {
            Some(d) => {
                for line in render_diagnosis(d) {
                    outln!("  {line}");
                }
            }
            None if !o.verdict.is_verified() => {
                outln!("  no diagnosis: the refuting branch carried no position label");
            }
            None => {}
        }
    }
    Ok(if all_verified {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Default location of the persistent verdict cache and batch manifest.
const DEFAULT_CACHE_DIR: &str = ".oolong-cache";

/// `oolong infer` — infer missing frame annotations and re-verify them
/// through the engine.
fn cmd_infer(args: &[String]) -> Result<ExitCode, String> {
    let spec = positional(args)?;
    let unit = match oolong_infer::resolve_spec(spec) {
        Some(resolved) => resolved?,
        None => oolong_infer::InferUnit {
            name: spec.to_string(),
            source: load_source(spec)?,
            truth: None,
        },
    };
    let mut opts = oolong_infer::InferOptions {
        check: check_options(args)?,
        proc: opt_value(args, "--proc"),
        infer_reads: flag(args, "--reads"),
        ..Default::default()
    };
    if let Some(n) = opt_value(args, "--max-rounds") {
        opts.max_rounds = n.parse().map_err(|_| "bad --max-rounds")?;
    }
    let engine_opts = EngineOptions {
        check: opts.check.clone(),
        workers: 0,
        cache_dir: batch_cache_dir(args),
        diagnose: false,
    };
    let engine = Engine::new(engine_opts).map_err(|e| format!("cannot open cache: {e}"))?;
    let outcome = oolong_infer::infer(&engine, &unit.name, &unit.source, &opts)?;
    let accuracy = match &unit.truth {
        Some(truth) => Some(oolong_infer::accuracy(&outcome, truth)?),
        None => None,
    };

    // `--apply` rewrites file units in place; for corpus/generated units
    // (no backing file) it prints the rewritten source instead.
    let apply = flag(args, "--apply");
    let is_file = !spec.contains(':') || Path::new(spec).exists();
    if apply && is_file {
        std::fs::write(spec, &outcome.edited_source)
            .map_err(|e| format!("cannot write `{spec}`: {e}"))?;
    }

    if flag(args, "--json") {
        outln!(
            "{}",
            oolong_infer::infer_json(&outcome, accuracy.as_ref(), apply).render()
        );
        return Ok(if outcome.verified {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    if apply && !is_file {
        outln!("{}", outcome.edited_source.trim_end());
        outln!("---");
    }
    for proposal in &outcome.proposals {
        outln!(
            "{}: {} {}  [{}, round {}]",
            proposal.proc,
            proposal.kind_name(),
            proposal.target(&|p| outcome.params_of(p)),
            proposal.provenance.as_str(),
            proposal.round
        );
    }
    for note in &outcome.notes {
        outln!("note: {note}");
    }
    if let Some(acc) = &accuracy {
        outln!(
            "accuracy: {}/{} exact, {} superset, {} other",
            acc.exact(),
            acc.total(),
            acc.superset(),
            acc.other()
        );
    }
    outln!(
        "{} proposals in {} rounds: fixpoint={}, verified={}{}",
        outcome.proposals.len(),
        outcome.rounds,
        outcome.fixpoint,
        outcome.verified,
        if outcome.membership_fallback {
            " (membership fallback)"
        } else {
            ""
        }
    );
    if !outcome.unverified_procs.is_empty() {
        outln!("unverified: {}", outcome.unverified_procs.join(", "));
    }
    Ok(if outcome.verified {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Parses everything `batch`/`recheck` need *before* any side effect
/// (notably the manifest write), so a bad option leaves the recorded
/// batch untouched.
fn engine_options(args: &[String], cache_dir: Option<PathBuf>) -> Result<EngineOptions, String> {
    let workers = match opt_value(args, "--workers") {
        Some(n) => n.parse().map_err(|_| "bad --workers")?,
        None => 0,
    };
    Ok(EngineOptions {
        check: check_options(args)?,
        workers,
        cache_dir,
        diagnose: flag(args, "--explain"),
    })
}

/// Shared driver behind `batch` and `recheck`.
fn run_batch(
    args: &[String],
    units: Vec<BatchUnit>,
    options: EngineOptions,
) -> Result<ExitCode, String> {
    let engine = Engine::new(options).map_err(|e| format!("cannot open cache: {e}"))?;
    let report = engine.check_batch(&units);
    if let Some(path) = opt_value(args, "--events") {
        // Derived from the finished report and written only now, one
        // flushed line per event: a run interrupted before the batch
        // returns writes no log at all.
        let mut writer = oolong_engine::EventLogWriter::create(Path::new(&path))
            .map_err(|e| format!("cannot open `{path}`: {e}"))?;
        writer
            .write_all(&report.events())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    if flag(args, "--json") {
        outln!("{}", report.to_json().render());
        return Ok(if report.all_verified() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    for error in &report.unit_errors {
        eprintln!("{}: {}", error.unit, error.message);
    }
    for obligation in &report.obligations {
        out!(
            "impl {} ({}): {}",
            obligation.proc_name,
            obligation.unit,
            obligation.verdict
        );
        if obligation.cache_hit {
            out!("  [cached]");
        } else if let Some(stats) = obligation.verdict.stats() {
            out!("  [{stats}]");
        }
        outln!();
    }
    let (v, r, u) = report.tally();
    outln!(
        "{} obligations: {v} verified, {r} rejected, {u} unknown; {} cache hits, {} prover calls, {:.1} ms",
        report.obligations.len(),
        report.cache_hits,
        report.prover_calls,
        report.millis
    );
    Ok(if report.all_verified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, String> {
    let specs = positionals(args);
    if specs.is_empty() {
        return Err(format!("missing input\n{}", usage()));
    }
    let units = specs
        .iter()
        .map(|spec| {
            Ok(BatchUnit {
                name: spec.to_string(),
                source: load_source(spec)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let cache_dir = batch_cache_dir(args);
    let options = engine_options(args, cache_dir.clone())?;
    if let Some(dir) = &cache_dir {
        write_manifest(dir, &specs)?;
    }
    run_batch(args, units, options)
}

fn cmd_recheck(args: &[String]) -> Result<ExitCode, String> {
    let dir = batch_cache_dir(args)
        .ok_or("recheck needs a cache (drop --no-cache or pass --cache-dir DIR)")?;
    let specs = read_manifest(&dir)?;
    let units = specs
        .iter()
        .map(|spec| {
            Ok(BatchUnit {
                name: spec.clone(),
                source: load_source(spec)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let options = engine_options(args, Some(dir))?;
    run_batch(args, units, options)
}

fn batch_cache_dir(args: &[String]) -> Option<PathBuf> {
    if flag(args, "--no-cache") {
        return None;
    }
    Some(PathBuf::from(
        opt_value(args, "--cache-dir").unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string()),
    ))
}

/// Records which units the last `batch` checked, so `recheck` can repeat it.
fn write_manifest(dir: &Path, specs: &[&str]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    let manifest = Json::Object(vec![(
        "units".to_string(),
        Json::Array(specs.iter().map(|s| Json::Str(s.to_string())).collect()),
    )]);
    let path = dir.join("manifest.json");
    std::fs::write(&path, manifest.render())
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

fn read_manifest(dir: &Path) -> Result<Vec<String>, String> {
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path).map_err(|_| {
        format!(
            "no batch recorded under `{}` (run `oolong batch` first)",
            dir.display()
        )
    })?;
    let value = oolong_engine::json::parse(&text)
        .map_err(|e| format!("corrupt manifest `{}`: {e}", path.display()))?;
    value
        .get("units")
        .and_then(Json::as_array)
        .map(|units| {
            units
                .iter()
                .filter_map(|u| u.as_str().map(str::to_string))
                .collect::<Vec<_>>()
        })
        .filter(|units| !units.is_empty())
        .ok_or_else(|| format!("corrupt manifest `{}`: no units", path.display()))
}

/// `oolong serve` — run the resident verification daemon in the
/// foreground until a client sends `shutdown`.
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let socket = opt_value(args, "--socket").ok_or("serve needs --socket PATH")?;
    let workers = match opt_value(args, "--workers") {
        Some(n) => n.parse().map_err(|_| "bad --workers")?,
        None => 0,
    };
    let queue = match opt_value(args, "--queue") {
        Some(n) => n.parse().map_err(|_| "bad --queue")?,
        None => 64,
    };
    let mem_capacity = match opt_value(args, "--mem-cap") {
        Some(n) => n.parse().map_err(|_| "bad --mem-cap")?,
        None => oolong_engine::DEFAULT_MEMORY_CAPACITY,
    };
    let options = ServeOptions {
        socket: PathBuf::from(socket),
        cache_dir: batch_cache_dir(args),
        mem_capacity,
        workers,
        queue,
        check: check_options(args)?,
        events: opt_value(args, "--events").map(PathBuf::from),
        json_log: flag(args, "--json-log"),
        quiet: flag(args, "--quiet"),
        ..ServeOptions::default()
    };
    let server = Server::bind(options).map_err(|e| format!("cannot start server: {e}"))?;
    server.run().map_err(|e| format!("server failed: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// `oolong client` — send request lines to a running daemon and print
/// each response line. Requests come from `--eval '<json>'` or a file of
/// newline-delimited requests (`-` for stdin).
fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let socket = opt_value(args, "--socket").unwrap_or_else(|| "oolong.sock".to_string());
    let requests = if let Some(request) = opt_value(args, "--eval") {
        request
    } else {
        match positional(args)? {
            "-" => std::io::read_to_string(std::io::stdin())
                .map_err(|e| format!("cannot read stdin: {e}"))?,
            path => {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
            }
        }
    };
    let mut client = Client::connect(&socket)
        .map_err(|e| format!("cannot connect to `{socket}`: {e} (is the server running?)"))?;
    let mut all_ok = true;
    for line in requests.lines().filter(|l| !l.trim().is_empty()) {
        let response = client
            .request(line)
            .map_err(|e| format!("request failed: {e}"))?;
        all_ok &= oolong_serve::response_ok(&response);
        outln!("{}", response.render());
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let source = load_source(positional(args)?)?;
    let program = parse_program(&source).map_err(|e| e.render(&source))?;
    let scope = Scope::analyze(&program).map_err(|e| e.render(&source))?;
    let proc = opt_value(args, "--proc").ok_or("missing --proc NAME")?;
    let seeds: u64 = opt_value(args, "--seeds")
        .unwrap_or_else(|| "20".into())
        .parse()
        .map_err(|_| "bad --seeds")?;
    let config = ExecConfig {
        check_owner_exclusion: flag(args, "--owner-exclusion"),
        ..ExecConfig::default()
    };
    let mut wrong = 0u64;
    let mut completed = 0u64;
    let mut blocked = 0u64;
    let mut fuel = 0u64;
    for seed in 0..seeds {
        let mut interp = Interp::new(&scope, config.clone(), RngOracle::seeded(seed));
        match interp.run_proc_fresh(&proc) {
            RunOutcome::Completed => completed += 1,
            RunOutcome::Blocked => blocked += 1,
            RunOutcome::OutOfFuel => fuel += 1,
            RunOutcome::Wrong(w) => {
                wrong += 1;
                outln!("seed {seed}: WRONG — {w}");
            }
        }
    }
    outln!(
        "{seeds} runs: {completed} completed, {blocked} blocked, {wrong} wrong, {fuel} out-of-fuel"
    );
    Ok(if wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_vc(args: &[String]) -> Result<ExitCode, String> {
    let source = load_source(positional(args)?)?;
    let program = parse_program(&source).map_err(|e| e.render(&source))?;
    let checker = Checker::new(&program, check_options(args)?).map_err(|e| e.render(&source))?;
    let filter = opt_value(args, "--proc");
    for (impl_id, info) in checker.scope().impls() {
        let name = checker.scope().proc_info(info.proc).name.clone();
        if let Some(f) = &filter {
            if &name != f {
                continue;
            }
        }
        let vc = checker.vc(impl_id).map_err(|e| e.to_string())?;
        outln!(
            "=== VC for impl {name} ({} hypotheses)",
            vc.hypotheses.len()
        );
        for (i, h) in vc.hypotheses.iter().enumerate() {
            outln!("H{i}: {h}");
        }
        outln!("⊢ {}", vc.goal);
    }
    Ok(ExitCode::SUCCESS)
}

/// `oolong stats` — the program's shape and specification overhead, plus
/// the prover telemetry of checking it through the engine.
fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let name = positional(args)?;
    let source = load_source(name)?;
    let program = parse_program(&source).map_err(|e| e.render(&source))?;
    let spec = overhead(&program);
    let options = check_options(args)?;
    let checker = Checker::new(&program, options.clone()).map_err(|e| e.render(&source))?;
    let scope = checker.scope();
    let engine = Engine::new(EngineOptions {
        check: options,
        ..EngineOptions::default()
    })
    .map_err(|e| format!("cannot open cache: {e}"))?;
    let report = engine.check_program(name, &source, &program);
    // Obligation kinds are counted over the VCs that were generated: the
    // obligations that carry a fingerprint.
    let mut kind_counts = Vec::new();
    for ((impl_id, _), o) in scope.impls().zip(&report.obligations) {
        if o.fingerprint.is_some() {
            kind_counts.extend(
                checker
                    .vc(impl_id)
                    .map_err(|e| e.to_string())?
                    .kind_counts(),
            );
        }
    }
    let metrics = prover_metrics(
        report.obligations.iter().filter_map(|o| o.verdict.stats()),
        kind_counts,
    );
    if flag(args, "--json") {
        outln!(
            "{}",
            Json::Object(vec![
                (
                    "program".to_string(),
                    Json::Object(vec![
                        (
                            "declarations".to_string(),
                            Json::Int(program.decls.len() as i64)
                        ),
                        (
                            "attributes".to_string(),
                            Json::Int(scope.attr_count() as i64)
                        ),
                        ("pivots".to_string(), Json::Int(scope.pivots().len() as i64)),
                        (
                            "procedures".to_string(),
                            Json::Int(scope.procs().count() as i64)
                        ),
                        ("impls".to_string(), Json::Int(scope.impls().count() as i64)),
                        (
                            "spec_tokens".to_string(),
                            Json::Int(spec.spec_tokens as i64)
                        ),
                        (
                            "total_tokens".to_string(),
                            Json::Int(spec.total_tokens as i64)
                        ),
                    ]),
                ),
                ("prover".to_string(), prover_metrics_json(&metrics)),
            ])
            .render()
        );
        return Ok(ExitCode::SUCCESS);
    }
    outln!("declarations: {}", program.decls.len());
    outln!("attributes:   {}", scope.attr_count());
    outln!("pivots:       {}", scope.pivots().len());
    outln!("procedures:   {}", scope.procs().count());
    outln!("impls:        {}", scope.impls().count());
    outln!("spec overhead: {spec}");
    outln!();
    out!("{metrics}");
    Ok(ExitCode::SUCCESS)
}

/// The `--json` rendering of aggregated prover telemetry.
fn prover_metrics_json(metrics: &datagroups::ProverMetrics) -> Json {
    Json::Object(vec![
        (
            "obligations".to_string(),
            Json::Int(metrics.obligations as i64),
        ),
        ("unknown".to_string(), Json::Int(metrics.unknown as i64)),
        ("instances".to_string(), Json::Int(metrics.instances as i64)),
        (
            "presat_instances".to_string(),
            Json::Int(metrics.presat_instances as i64),
        ),
        (
            "goal_instances".to_string(),
            Json::Int(metrics.goal_instances as i64),
        ),
        (
            "trigger_matches".to_string(),
            Json::Int(metrics.trigger_matches as i64),
        ),
        ("merges".to_string(), Json::Int(metrics.merges as i64)),
        ("branches".to_string(), Json::Int(metrics.branches as i64)),
        ("clauses".to_string(), Json::Int(metrics.clauses as i64)),
        ("deferred".to_string(), Json::Int(metrics.deferred as i64)),
        ("pops".to_string(), Json::Int(metrics.pops as i64)),
        (
            "undone_merges".to_string(),
            Json::Int(metrics.undone_merges as i64),
        ),
        (
            "trail_depth_max".to_string(),
            Json::Int(metrics.trail_depth_max as i64),
        ),
        (
            "sliced_axioms".to_string(),
            Json::Int(metrics.sliced_axioms as i64),
        ),
        (
            "by_kind".to_string(),
            Json::Object(
                metrics
                    .by_kind
                    .iter()
                    .map(|(kind, n)| (kind.as_str().to_string(), Json::Int(*n as i64)))
                    .collect(),
            ),
        ),
        (
            "obligation_kinds".to_string(),
            Json::Object(
                metrics
                    .obligation_kinds
                    .iter()
                    .map(|(kind, n)| (kind.as_str().to_string(), Json::Int(*n as i64)))
                    .collect(),
            ),
        ),
        (
            "hottest".to_string(),
            Json::Array(
                metrics
                    .hottest
                    .iter()
                    .map(|axiom| {
                        Json::Object(vec![
                            (
                                "kind".to_string(),
                                Json::Str(axiom.kind.as_str().to_string()),
                            ),
                            ("trigger".to_string(), Json::Str(axiom.trigger.clone())),
                            ("matches".to_string(), Json::Int(axiom.matches as i64)),
                            ("instances".to_string(), Json::Int(axiom.instances as i64)),
                            (
                                "presat".to_string(),
                                Json::Int(axiom.presat_instances as i64),
                            ),
                            ("goal".to_string(), Json::Int(axiom.goal_instances as i64)),
                            ("deferred".to_string(), Json::Int(axiom.deferred as i64)),
                            (
                                "obligations".to_string(),
                                Json::Int(axiom.obligations as i64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `oolong axioms` — the declared pattern-policy table of a program's
/// scope background, joined with where each axiom's instantiations landed
/// (pre-saturation vs obligation frames) when every implementation is
/// proved against the full (unsliced) background.
fn cmd_axioms(args: &[String]) -> Result<ExitCode, String> {
    let source = load_source(positional(args)?)?;
    let program = parse_program(&source).map_err(|e| e.render(&source))?;
    let checker = Checker::new(&program, check_options(args)?).map_err(|e| e.render(&source))?;
    let background = checker.background();

    // Per-axiom telemetry, summed over every obligation. Each VC is proved
    // against the full background so the per-quantifier rows line up with
    // the policy table by index — the slicer would renumber them.
    let n = background.len();
    let (mut presat, mut goal, mut matches) = (vec![0i64; n], vec![0i64; n], vec![0i64; n]);
    let impl_ids: Vec<_> = checker.scope().impls().map(|(id, _)| id).collect();
    for id in impl_ids {
        let Ok(vc) = checker.vc(id) else { continue };
        let full = BackgroundSlice {
            keep: vec![true; vc.background_hyps],
        };
        let mut ctx = checker.context_for_slice(&vc, &full);
        let verdict = checker.verdict_for_vc_in(&mut ctx, &vc, 0);
        let Some(stats) = verdict.stats() else {
            continue;
        };
        for (axiom, ((p, g), m)) in presat
            .iter_mut()
            .zip(goal.iter_mut())
            .zip(matches.iter_mut())
            .enumerate()
        {
            for q in stats.per_quant.iter() {
                if ctx.background_quants(axiom).contains(&q.id) {
                    *p += q.presat_instances as i64;
                    *g += q.goal_instances as i64;
                    *m += q.matches as i64;
                }
            }
        }
    }

    let pats = |p: &oolong_logic::PatternPolicy| {
        p.triggers
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    let mpat = |p: &oolong_logic::PatternPolicy| {
        p.multi_patterns
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    if flag(args, "--json") {
        let axioms = background
            .iter()
            .enumerate()
            .map(|(i, axiom)| {
                let policy = &axiom.policy;
                Json::Object(vec![
                    ("name".to_string(), Json::Str(axiom.name.clone())),
                    (
                        "phase".to_string(),
                        Json::Str(policy.phase.as_str().to_string()),
                    ),
                    (
                        "pats".to_string(),
                        Json::Array(pats(policy).into_iter().map(Json::Str).collect()),
                    ),
                    (
                        "mpat".to_string(),
                        Json::Array(mpat(policy).into_iter().map(Json::Str).collect()),
                    ),
                    ("presat".to_string(), Json::Int(presat[i])),
                    ("goal".to_string(), Json::Int(goal[i])),
                    ("matches".to_string(), Json::Int(matches[i])),
                ])
            })
            .collect();
        outln!(
            "{}",
            Json::Object(vec![
                ("axioms".to_string(), Json::Array(axioms)),
                (
                    "totals".to_string(),
                    Json::Object(vec![
                        ("presat".to_string(), Json::Int(presat.iter().sum())),
                        ("goal".to_string(), Json::Int(goal.iter().sum())),
                    ]),
                ),
            ])
            .render()
        );
        return Ok(ExitCode::SUCCESS);
    }
    for (i, axiom) in background.iter().enumerate() {
        let policy = &axiom.policy;
        outln!("{} [{}]", axiom.name, policy.phase);
        for t in pats(policy) {
            outln!("  PATS {t}");
        }
        for t in mpat(policy) {
            outln!("  MPAT {t}");
        }
        outln!(
            "  {} instances ({} presat + {} goal), {} matches",
            presat[i] + goal[i],
            presat[i],
            goal[i],
            matches[i]
        );
    }
    outln!(
        "total: {} presat + {} goal instances across {} axioms",
        presat.iter().sum::<i64>(),
        goal.iter().sum::<i64>(),
        n
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_corpus() -> Result<ExitCode, String> {
    for p in oolong_corpus::all() {
        outln!("{:<22} §{}", p.name, p.section);
    }
    Ok(ExitCode::SUCCESS)
}
