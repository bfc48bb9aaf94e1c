//! The three in-process workloads — `paper_cold`, `scaled_cold`, and
//! `edit_loop` — and what every workload shares: set-up timing, the
//! end-to-end metrics, and the pairing of engine and mirror passes.
//!
//! Each workload runs the real [`Engine`] untraced for the end-to-end
//! metrics; a traced run alternates those engine passes with traced
//! mirror passes over the same inputs.

use crate::calibrate::Speedometer;
use crate::inputs::{self, SplitMix, SCALED_PROCS, SCALED_UNITS, WORKERS};
use crate::measure::{median, peak_rss_mb, percentile, Outcome};
use crate::mirror::{fidelity, Layers, Mirror, MirrorPass};
use crate::trace::Span;
use crate::truth;
use crate::Config;
use oolong_engine::{BatchReport, BatchUnit, Engine, EngineOptions};
use std::time::{Duration, Instant};

/// Set-ups per run at least; cheaper set-ups repeat until
/// [`SETUP_MIN_MS`] of set-up work has been timed, up to [`SETUP_MAX`].
/// `setup_s` is their median.
const SETUPS: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_MIN_MS: f64 = 300.0;

/// The engine every in-process workload uses: default checking options,
/// two workers, an in-memory store.
pub fn engine() -> Engine {
    Engine::new(EngineOptions {
        workers: WORKERS,
        ..EngineOptions::default()
    })
    .expect("an in-memory engine opens")
}

/// Runs `f`, returning its result and wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1_000.0)
}

/// Checks one batch against the known answers, counting its obligations
/// as attempted, and returns how many were decided (verified or rejected
/// within budget, not unknown).
pub fn verify(report: &BatchReport, expected: usize, out: &mut Outcome) -> u64 {
    out.attempted += report.obligations.len() as u64;
    for error in &report.unit_errors {
        out.fail(format!(
            "unit {} did not check: {}",
            error.unit, error.message
        ));
    }
    if report.obligations.len() != expected {
        out.fail(format!(
            "{} obligations checked, expected {expected}",
            report.obligations.len()
        ));
    }
    let wrong = truth::check_verdicts(
        report
            .obligations
            .iter()
            .map(|o| (o.unit.as_str(), o.proc_name.as_str(), o.verdict.label())),
    );
    for message in wrong {
        out.fail(message);
    }
    let (verified, rejected, _) = report.tally();
    (verified + rejected) as u64
}

/// The median set-up time of a run, normalized and raw, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub normalized_s: f64,
    pub raw_s: f64,
}

/// Runs `setup` repeatedly (see [`SETUPS`]) and returns the last result
/// with the median set-up time. Set-up results are checked against the
/// known answers too, but do not count as attempts.
pub fn repeated_setup<T>(
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Outcome, usize) -> T,
) -> (T, Setup) {
    let mut checks = Outcome::passing();
    let (mut normalized, mut raw) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut speed = Speedometer::start();
    while raw.len() < SETUPS || (raw.iter().sum::<f64>() < SETUP_MIN_MS && raw.len() < SETUP_MAX) {
        // Tear the previous set-up down outside the timed interval.
        drop(last.take());
        let (value, ms) = timed(|| setup(&mut checks, raw.len()));
        last = Some(value);
        normalized.push(ms / speed.lap() / 1_000.0);
        raw.push(ms);
    }
    if !checks.correct {
        out.reject("a set-up gave wrong answers".to_string());
    }
    let raw_s: Vec<f64> = raw.iter().map(|ms| ms / 1_000.0).collect();
    let setup = Setup {
        normalized_s: median(&normalized),
        raw_s: median(&raw_s),
    };
    (last.expect("at least one set-up"), setup)
}

/// Traced passes: per-layer totals, the spans for the trace file, and the
/// paired traced and untraced pass times.
#[derive(Default)]
pub struct TraceLog {
    pub layers: Layers,
    pub threads: Vec<(String, Vec<Span>)>,
    pub traced_ms: f64,
    pub untraced_ms: f64,
}

impl TraceLog {
    /// Keeps a pass's spans for the trace file; a pass with a `slowdown`
    /// is measured and also enters the per-layer totals.
    pub fn keep(&mut self, pass: MirrorPass, slowdown: Option<f64>) {
        if let Some(slowdown) = slowdown {
            self.layers.add(&pass, slowdown);
        }
        for (name, spans) in pass.threads {
            self.append(name, spans);
        }
    }

    /// Appends one thread's spans, re-basing their parent indices.
    pub fn append(&mut self, name: String, spans: Vec<Span>) {
        let index = match self.threads.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.threads.push((name, Vec::new()));
                self.threads.len() - 1
            }
        };
        let merged = &mut self.threads[index].1;
        let offset = merged.len();
        merged.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Keeps a measured mirror pass with the time of the engine pass it
    /// was paired with.
    pub fn add_pair(&mut self, untraced_ms: f64, pass: MirrorPass, slowdown: f64) {
        self.untraced_ms += untraced_ms;
        self.traced_ms += pass.wall_ms;
        self.keep(pass, Some(slowdown));
    }

    /// Traced time over untraced time, summed over paired passes.
    pub fn overhead(&self) -> f64 {
        self.traced_ms / self.untraced_ms.max(f64::MIN_POSITIVE)
    }
}

/// Runs one timed engine batch and, when tracing, one traced mirror
/// batch over the same units. Even passes run the mirror first: whichever
/// goes first pays for interning new terms in the process-wide term
/// arena, so alternating keeps that cost out of the overhead ratio.
pub fn paired(
    engine: impl FnOnce() -> BatchReport,
    mirror: Option<impl FnOnce() -> MirrorPass>,
    pass: u32,
) -> (BatchReport, f64, Option<MirrorPass>) {
    let Some(mirror) = mirror else {
        let (report, ms) = timed(engine);
        return (report, ms, None);
    };
    if pass.is_multiple_of(2) {
        let mirrored = mirror();
        let (report, ms) = timed(engine);
        (report, ms, Some(mirrored))
    } else {
        let (report, ms) = timed(engine);
        (report, ms, Some(mirror()))
    }
}

/// Fails the run when a mirror pass diverges from its engine pass.
pub fn check_mirror(report: &BatchReport, pass: &MirrorPass, out: &mut Outcome) {
    if pass.unit_errors != report.unit_errors.len() {
        out.reject("mirror and engine disagree on unit errors".to_string());
    }
    for diff in fidelity(&report.obligations, &pass.obligations) {
        out.reject(format!("mirror diverged from the engine: {diff}"));
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Times and rates are
/// normalized by the machine's slowdown; the raw readings are printed as
/// extras.
pub struct EndToEnd<'a> {
    pub setup: Setup,
    pub peak_rss_mb: f64,
    /// Per pass, round, or request, normalized; failed attempts are `+∞`.
    pub latencies: &'a [f64],
    pub raw_latencies: &'a [f64],
    pub obligations_per_s: f64,
    pub throughput_rps: f64,
    pub decided_ratio: f64,
    pub slowdowns: &'a [f64],
}

impl EndToEnd<'_> {
    pub fn push(&self, out: &mut Outcome) {
        out.push("setup_s", self.setup.normalized_s, "s");
        out.push("peak_rss_mb", self.peak_rss_mb, "MB");
        out.push("latency_p50_ms", median(self.latencies), "ms");
        out.push("latency_p90_ms", percentile(self.latencies, 0.90), "ms");
        out.push("obligations_per_s", self.obligations_per_s, "1/s");
        out.push("throughput_rps", self.throughput_rps, "1/s");
        out.push("decided_ratio", self.decided_ratio, "ratio");
        out.push_extra("latency_p99_ms", percentile(self.latencies, 0.99), "ms");
        out.push_extra("raw.setup_s", self.setup.raw_s, "s");
        out.push_extra("raw.latency_p50_ms", median(self.raw_latencies), "ms");
        out.push_extra(
            "raw.latency_p90_ms",
            percentile(self.raw_latencies, 0.90),
            "ms",
        );
        out.push_extra("machine.slowdown", median(self.slowdowns), "ratio");
        out.notes
            .push(format!("{} latency samples", self.latencies.len()));
    }
}

/// A closed loop with one caller. Passes are grouped into intervals of
/// at least half a second, and each is normalized by the slowdown measured
/// at its interval's ends.
struct Passes {
    latencies: Vec<f64>,
    raw: Vec<f64>,
    decided: u64,
    speed: Speedometer,
    /// The open interval's passes: time, and the paired mirror pass.
    pending: Vec<(f64, Option<MirrorPass>)>,
}

impl Passes {
    fn start() -> Passes {
        Passes {
            latencies: Vec::new(),
            raw: Vec::new(),
            decided: 0,
            speed: Speedometer::start(),
            pending: Vec::new(),
        }
    }

    fn count(&self) -> usize {
        self.raw.len() + self.pending.len()
    }

    /// Records one pass and closes the open interval when it is due or
    /// `last`.
    fn push(
        &mut self,
        ms: f64,
        mirrored: Option<MirrorPass>,
        trace: &mut Option<TraceLog>,
        last: bool,
    ) {
        self.pending.push((ms, mirrored));
        if !(last || self.speed.due()) {
            return;
        }
        let slowdown = self.speed.lap();
        for (ms, mirrored) in self.pending.drain(..) {
            self.raw.push(ms);
            self.latencies.push(ms / slowdown);
            if let (Some(trace), Some(pass)) = (trace.as_mut(), mirrored) {
                trace.add_pair(ms, pass, slowdown);
            }
        }
    }

    /// Pushes the end-to-end metrics. Rates are taken at the median pass,
    /// which a slow phase of a shared machine moves less than a mean.
    fn finish(&self, out: &mut Outcome, setup: Setup, per_pass: usize) {
        let median_s = median(&self.latencies) / 1_000.0;
        EndToEnd {
            setup,
            peak_rss_mb: peak_rss_mb(None).unwrap_or(0.0),
            latencies: &self.latencies,
            raw_latencies: &self.raw,
            obligations_per_s: per_pass as f64 / median_s,
            throughput_rps: 1.0 / median_s,
            decided_ratio: self.decided as f64 / out.attempted.max(1) as f64,
            slowdowns: self.speed.slowdowns(),
        }
        .push(out);
    }
}

/// The closed loop of `paper_cold` and `scaled_cold`: one caller, each
/// pass a fresh engine checking every unit cold.
fn cold_loop(
    cfg: &Config,
    units: &[BatchUnit],
    expected: usize,
    setup: Setup,
    out: &mut Outcome,
) -> Option<TraceLog> {
    let epoch = Instant::now();
    let mut trace = cfg.trace.then(TraceLog::default);
    let mut passes = Passes::start();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut last = false;
    while out.correct && !last {
        let pass = passes.count() as u32 + 1;
        let mirror = trace
            .is_some()
            .then_some(|| Mirror::new(WORKERS).check_batch(units, pass, epoch));
        let (report, ms, mirrored) = paired(|| engine().check_batch(units), mirror, pass);
        passes.decided += verify(&report, expected, out);
        if let Some(mirrored) = &mirrored {
            check_mirror(&report, mirrored, out);
        }
        last = Instant::now() >= deadline || !out.correct;
        passes.push(ms, mirrored, &mut trace, last);
    }
    out.notes.push(format!(
        "{} passes of {expected} obligations",
        passes.raw.len()
    ));
    passes.finish(out, setup, expected);
    trace
}

/// `paper_cold`: the twelve paper units (27 obligations) checked cold by a
/// fresh engine per pass, as `cold_probe` measures them. The inputs are
/// the fixed corpus; the seed does not change them.
pub fn paper_cold(cfg: &Config, out: &mut Outcome) -> Option<TraceLog> {
    let (units, setup) = repeated_setup(out, |checks, _| {
        let units = inputs::paper_units();
        // One unmeasured pass, like cold_probe's warm-up, so the first
        // measured pass does not pay one-time allocator growth.
        verify(&engine().check_batch(&units), truth::PAPER.len(), checks);
        units
    });
    cold_loop(cfg, &units, truth::PAPER.len(), setup, out)
}

/// `scaled_cold`: four generated 200-procedure units (800 obligations,
/// all verifying by construction) checked cold by a fresh engine per pass.
pub fn scaled_cold(cfg: &Config, out: &mut Outcome) -> Option<TraceLog> {
    let (units, setup) = repeated_setup(out, |_, _| inputs::scaled_units(cfg.seed));
    let expected = SCALED_UNITS as usize * SCALED_PROCS;
    cold_loop(cfg, &units, expected, setup, out)
}

/// `edit_loop`: one resident engine, warmed by a cold check of the scaled
/// units (the set-up); each round inserts a true assumption into one
/// seeded implementation and re-checks its unit, which must cost exactly
/// one prover call and serve every other obligation from the store.
pub fn edit_loop(cfg: &Config, out: &mut Outcome) -> Option<TraceLog> {
    let units = inputs::scaled_units(cfg.seed);
    let resident = SCALED_UNITS as usize * SCALED_PROCS;
    let ((engine, cold), setup) = repeated_setup(out, |checks, _| {
        let engine = engine();
        let cold = engine.check_batch(&units);
        verify(&cold, resident, checks);
        (engine, cold)
    });

    let epoch = Instant::now();
    let mut trace = cfg.trace.then(TraceLog::default);
    let mirror = cfg.trace.then(|| Mirror::new(WORKERS));
    if let (Some(trace), Some(mirror)) = (trace.as_mut(), mirror.as_ref()) {
        // The mirror's own resident state starts from the same cold batch.
        let pass = mirror.check_batch(&units, 0, epoch);
        check_mirror(&cold, &pass, out);
        trace.keep(pass, None);
    }

    let mut rng = SplitMix::new(cfg.seed);
    let mut passes = Passes::start();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut last = false;
    while out.correct && !last {
        let round = passes.count() as u64 + 1;
        let unit = &units[rng.below(units.len())];
        let edited = BatchUnit {
            name: unit.name.clone(),
            source: inputs::edit_source(&unit.source, rng.below(SCALED_PROCS), round),
        };
        let batch = std::slice::from_ref(&edited);
        let traced = mirror
            .as_ref()
            .map(|mirror| || mirror.check_batch(batch, round as u32, epoch));
        let (report, ms, mirrored) = paired(|| engine.check_batch(batch), traced, round as u32);
        passes.decided += verify(&report, SCALED_PROCS, out);
        if let Some(message) = one_call(report.prover_calls, report.cache_hits) {
            out.fail(message);
        }
        if let Some(mirrored) = &mirrored {
            check_mirror(&report, mirrored, out);
            let calls = mirrored
                .obligations
                .iter()
                .filter(|t| t.prover_call)
                .count();
            let hits = mirrored
                .obligations
                .iter()
                .filter(|t| t.report.cache_hit)
                .count();
            if let Some(message) = one_call(calls, hits) {
                out.reject(format!("mirror: {message}"));
            }
        }
        last = Instant::now() >= deadline || !out.correct;
        passes.push(ms, mirrored, &mut trace, last);
    }
    out.notes.push(format!(
        "{} rounds over {resident} resident obligations",
        passes.raw.len()
    ));
    passes.finish(out, setup, SCALED_PROCS);
    trace
}

/// What is wrong with an edit round's store traffic, if anything.
fn one_call(prover_calls: usize, cache_hits: usize) -> Option<String> {
    ((prover_calls, cache_hits) != (1, SCALED_PROCS - 1)).then(|| {
        format!(
            "an edit round made {prover_calls} prover calls and {cache_hits} cache hits, \
             expected 1 and {}",
            SCALED_PROCS - 1
        )
    })
}
