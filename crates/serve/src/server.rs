//! The resident daemon: accept loop, session threads, worker pool,
//! admission control, and load metrics.
//!
//! ## Threading model
//!
//! One thread accepts connections; each connection gets a session thread
//! that reads request lines and writes response lines in order; a fixed
//! pool of worker threads executes the proving work. Sessions hand each
//! proving request (`check` / `batch` / `explain`) to the pool through a
//! *bounded* queue and block for its response, so concurrency equals the
//! number of live sessions but CPU work is capped by the pool size.
//! `stats` and `shutdown` are answered inline — they must stay responsive
//! precisely when the pool is saturated.
//!
//! ## Admission control
//!
//! The queue bound is the admission limit. When a session cannot enqueue
//! (pool busy, queue full), the request is *not* dropped and does *not*
//! wait: the session runs it immediately under the **degraded budget**
//! [`Budget::tiny`]. A starved budget turns hard obligations into fast
//! `unknown` verdicts that carry the usual divergence attribution, so
//! overload degrades per-request answer quality instead of collapsing
//! into an unbounded queue — the same bounded-effort philosophy the paper
//! applies to diverging proofs (§5).
//! Degraded responses are marked `"degraded":true`.
//!
//! ## Shared cache
//!
//! All requests share one [`TieredStore`] opened at bind time: a bounded
//! in-memory LRU tier in front of the persistent on-disk tier. Engines
//! are built per request (each request may override its prover budget)
//! against the same store handle, so a warm obligation is served from
//! memory no matter which session, budget, or engine asks.

use crate::protocol::{
    check_result_json, error_response, explain_result_json, ok_response, parse_request, Command,
    Request, UnitRef,
};
use datagroups::CheckOptions;
use oolong_engine::{
    BatchReport, BatchUnit, ContextPool, CutoffMap, Engine, EngineOptions, Event, EventLogWriter,
    Json, TieredStore, VerdictStore, DEFAULT_CONTEXT_CAPACITY, DEFAULT_MEMORY_CAPACITY,
};
use oolong_prover::Budget;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Path of the Unix socket to listen on. A stale socket file is
    /// replaced.
    pub socket: PathBuf,
    /// Directory of the persistent verdict tier; `None` serves from
    /// memory only.
    pub cache_dir: Option<PathBuf>,
    /// Entry bound of the in-memory LRU tier.
    pub mem_capacity: usize,
    /// Worker threads executing proving requests; `0` means one per
    /// available core.
    pub workers: usize,
    /// Admission-queue bound: proving requests beyond this many waiting
    /// are run degraded instead of queued.
    pub queue: usize,
    /// Default checking options; requests may override budget dimensions
    /// and toggles per request.
    pub check: CheckOptions,
    /// Write every engine event of every request to this JSONL file,
    /// each request's events once its batch returns, one line per write.
    pub events: Option<PathBuf>,
    /// Log one JSON object per request to stderr instead of a human
    /// line.
    pub json_log: bool,
    /// Suppress per-request logging entirely (tests, benches).
    pub quiet: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from("oolong.sock"),
            cache_dir: None,
            mem_capacity: DEFAULT_MEMORY_CAPACITY,
            workers: 0,
            queue: 64,
            check: CheckOptions::default(),
            events: None,
            json_log: false,
            quiet: false,
        }
    }
}

/// Monotonic counters and latency samples behind the `stats` request.
#[derive(Debug, Default)]
struct Metrics {
    received: AtomicU64,
    answered: AtomicU64,
    errors: AtomicU64,
    degraded: AtomicU64,
    by_cmd: [AtomicU64; 6],
    queue_depth: AtomicUsize,
    queue_peak: AtomicUsize,
    cache_hits: AtomicU64,
    prover_calls: AtomicU64,
    obligations: AtomicU64,
    latencies: Mutex<Latencies>,
}

/// How many of the most recent proving-request latencies the `stats`
/// percentiles and `max` cover.
const LATENCY_WINDOW: usize = 4096;

/// Proving-request latencies: the most recent [`LATENCY_WINDOW`] samples
/// in a ring, plus the lifetime count. A resident daemon's memory and
/// `stats` cost stay bounded however long it runs.
#[derive(Debug, Default)]
struct Latencies {
    window: Vec<f64>,
    /// Samples recorded over the server's lifetime; once the window is
    /// full, the next sample overwrites slot `count % LATENCY_WINDOW`,
    /// the oldest.
    count: u64,
}

impl Latencies {
    fn push(&mut self, millis: f64) {
        if self.window.len() < LATENCY_WINDOW {
            self.window.push(millis);
        } else {
            self.window[(self.count % LATENCY_WINDOW as u64) as usize] = millis;
        }
        self.count += 1;
    }

    /// The windowed samples, sorted ascending.
    fn sorted(&self) -> Vec<f64> {
        let mut samples = self.window.clone();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        samples
    }
}

const CMD_NAMES: [&str; 6] = ["check", "batch", "explain", "infer", "stats", "shutdown"];

fn cmd_index(name: &str) -> usize {
    CMD_NAMES.iter().position(|&c| c == name).unwrap_or(0)
}

/// Nearest-rank percentile over an already-sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// State shared by every server thread.
struct Shared {
    options: ServeOptions,
    store: Arc<TieredStore>,
    /// Warm scope contexts, shared across requests: the first obligation
    /// of a scope saturates its background, later requests reuse it.
    contexts: Arc<ContextPool>,
    /// Cutoff keys remembered across requests, bounded like the memory
    /// tier: an unchanged implementation skips VC generation.
    cutoffs: Arc<CutoffMap>,
    metrics: Metrics,
    stop: AtomicBool,
    started: Instant,
    events: Option<Mutex<EventLogWriter>>,
}

impl Shared {
    fn log(&self, cmd: &str, id: Option<i64>, millis: f64, degraded: bool, report: &str) {
        if self.options.quiet {
            return;
        }
        if self.options.json_log {
            let mut members = vec![
                ("at".to_string(), Json::Str("request".to_string())),
                ("cmd".to_string(), Json::Str(cmd.to_string())),
            ];
            if let Some(id) = id {
                members.push(("id".to_string(), Json::Int(id)));
            }
            members.push(("millis".to_string(), Json::Float(millis)));
            members.push(("degraded".to_string(), Json::Bool(degraded)));
            members.push(("report".to_string(), Json::Str(report.to_string())));
            eprintln!("{}", Json::Object(members).render());
        } else {
            let id = id.map(|i| format!(" id={i}")).unwrap_or_default();
            let flag = if degraded { " [degraded]" } else { "" };
            eprintln!("serve: {cmd}{id} {millis:.1}ms{flag} {report}");
        }
    }

    /// Resolves a unit reference into a batch unit, reading corpus
    /// programs and server-side files for named references.
    fn resolve(&self, unit: &UnitRef) -> Result<BatchUnit, String> {
        match unit {
            UnitRef::Inline { name, source } => Ok(BatchUnit {
                name: name.clone(),
                source: source.clone(),
            }),
            UnitRef::Named(spec) => Ok(BatchUnit {
                name: spec.clone(),
                source: oolong_corpus::load_source(spec)?,
            }),
        }
    }

    /// An engine over the shared store, warm contexts and cutoff map,
    /// with the request's effective options.
    fn engine_for(&self, check: CheckOptions, diagnose: bool) -> Engine {
        Engine::with_store_and_contexts(
            EngineOptions {
                check,
                // Sessions are the unit of parallelism; one request keeps
                // to one core so the pool bound means what it says.
                workers: 1,
                cache_dir: None,
                diagnose,
            },
            self.store.clone() as Arc<dyn VerdictStore>,
            self.contexts.clone(),
            self.cutoffs.clone(),
        )
    }

    /// Runs one proving request to a finished [`BatchReport`], absorbing
    /// its counters into the metrics. Returns the report and its event
    /// log, derived once: the server log gets the same events as the
    /// response.
    fn run_engine(
        &self,
        units: &[BatchUnit],
        check: CheckOptions,
        diagnose: bool,
    ) -> (BatchReport, Vec<Event>) {
        let engine = self.engine_for(check, diagnose);
        let report = engine.check_batch(units);
        self.metrics
            .cache_hits
            .fetch_add(report.cache_hits as u64, Ordering::Relaxed);
        self.metrics
            .prover_calls
            .fetch_add(report.prover_calls as u64, Ordering::Relaxed);
        self.metrics
            .obligations
            .fetch_add(report.obligations.len() as u64, Ordering::Relaxed);
        let events = report.events();
        if let Some(writer) = &self.events {
            let mut writer = writer.lock().expect("event writer lock poisoned");
            // Durability over availability: each line is written through,
            // and a full disk degrades logging, never request service.
            let _ = writer.write_all(&events);
        }
        (report, events)
    }

    /// Executes one proving command and renders its response line.
    fn serve_proving(&self, request: &Request, degraded: bool) -> String {
        let start = Instant::now();
        let base = if degraded {
            CheckOptions {
                budget: Budget::tiny(),
                ..self.options.check.clone()
            }
        } else {
            self.options.check.clone()
        };
        let rendered = match &request.command {
            Command::Check { unit, options } => {
                let resolved = match self.resolve(unit) {
                    Ok(u) => u,
                    Err(e) => return self.error(request.id, &e),
                };
                let (report, events) = self.run_engine(
                    std::slice::from_ref(&resolved),
                    options.apply(&base),
                    options.explain,
                );
                if let Some(error) = report.unit_errors.first() {
                    return self.error(request.id, &error.message);
                }
                ok_response(
                    request.id,
                    "check",
                    degraded,
                    start.elapsed().as_secs_f64() * 1_000.0,
                    check_result_json(&report),
                    Some(&events),
                )
            }
            Command::Batch { units, options } => {
                let resolved: Result<Vec<_>, _> = units.iter().map(|u| self.resolve(u)).collect();
                let resolved = match resolved {
                    Ok(units) => units,
                    Err(e) => return self.error(request.id, &e),
                };
                let (report, events) =
                    self.run_engine(&resolved, options.apply(&base), options.explain);
                ok_response(
                    request.id,
                    "batch",
                    degraded,
                    start.elapsed().as_secs_f64() * 1_000.0,
                    report.to_json(),
                    Some(&events),
                )
            }
            Command::Explain {
                unit,
                proc,
                options,
            } => {
                let resolved = match self.resolve(unit) {
                    Ok(u) => u,
                    Err(e) => return self.error(request.id, &e),
                };
                let (report, events) =
                    self.run_engine(std::slice::from_ref(&resolved), options.apply(&base), true);
                if let Some(error) = report.unit_errors.first() {
                    return self.error(request.id, &error.message);
                }
                let filter = proc.as_deref();
                if !report
                    .obligations
                    .iter()
                    .any(|o| filter.is_none_or(|f| o.proc_name == f))
                {
                    return self.error(
                        request.id,
                        &match filter {
                            Some(f) => format!("no implementation of `{f}` in `{}`", unit.name()),
                            None => format!("no implementations in `{}`", unit.name()),
                        },
                    );
                }
                ok_response(
                    request.id,
                    "explain",
                    degraded,
                    start.elapsed().as_secs_f64() * 1_000.0,
                    explain_result_json(unit.name(), &report, filter),
                    Some(&events),
                )
            }
            Command::Infer {
                unit,
                proc,
                max_rounds,
                options,
            } => {
                // Named references accept the inference schemes
                // (`stripped:NAME`, `unannotated:SEED`) on top of the
                // usual corpus/file resolution.
                let resolved = match unit {
                    UnitRef::Named(spec) => oolong_infer::resolve_spec(spec),
                    UnitRef::Inline { .. } => None,
                }
                .unwrap_or_else(|| {
                    self.resolve(unit).map(|u| oolong_infer::InferUnit {
                        name: u.name,
                        source: u.source,
                        truth: None,
                    })
                });
                let resolved = match resolved {
                    Ok(u) => u,
                    Err(e) => return self.error(request.id, &e),
                };
                let mut opts = oolong_infer::InferOptions {
                    check: options.apply(&base),
                    proc: proc.clone(),
                    ..Default::default()
                };
                if let Some(n) = max_rounds {
                    opts.max_rounds = *n;
                }
                let engine = self.engine_for(opts.check.clone(), false);
                let outcome =
                    match oolong_infer::infer(&engine, &resolved.name, &resolved.source, &opts) {
                        Ok(o) => o,
                        Err(e) => return self.error(request.id, &e),
                    };
                let accuracy = match &resolved.truth {
                    Some(truth) => match oolong_infer::accuracy(&outcome, truth) {
                        Ok(a) => Some(a),
                        Err(e) => return self.error(request.id, &e),
                    },
                    None => None,
                };
                ok_response(
                    request.id,
                    "infer",
                    degraded,
                    start.elapsed().as_secs_f64() * 1_000.0,
                    oolong_infer::infer_json(&outcome, accuracy.as_ref(), false),
                    None,
                )
            }
            Command::Stats | Command::Shutdown => {
                unreachable!("control commands are served inline")
            }
        };
        let millis = start.elapsed().as_secs_f64() * 1_000.0;
        self.metrics
            .latencies
            .lock()
            .expect("latency lock poisoned")
            .push(millis);
        if degraded {
            self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.answered.fetch_add(1, Ordering::Relaxed);
        self.log(request.command.name(), request.id, millis, degraded, "ok");
        rendered
    }

    fn error(&self, id: Option<i64>, message: &str) -> String {
        self.metrics.errors.fetch_add(1, Ordering::Relaxed);
        self.log("error", id, 0.0, false, message);
        error_response(id, message)
    }

    /// The `stats` response: load metrics of the running server.
    fn stats_json(&self) -> Json {
        let m = &self.metrics;
        let (count, latencies) = {
            let recorded = m.latencies.lock().expect("latency lock poisoned");
            (recorded.count, recorded.sorted())
        };
        let store = self.store.metrics();
        Json::Object(vec![
            (
                "uptime_millis".to_string(),
                Json::Float(self.started.elapsed().as_secs_f64() * 1_000.0),
            ),
            (
                "requests".to_string(),
                Json::Object(vec![
                    (
                        "received".to_string(),
                        Json::Int(m.received.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "answered".to_string(),
                        Json::Int(m.answered.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "errors".to_string(),
                        Json::Int(m.errors.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "degraded".to_string(),
                        Json::Int(m.degraded.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "by_cmd".to_string(),
                        Json::Object(
                            CMD_NAMES
                                .iter()
                                .zip(&m.by_cmd)
                                .map(|(name, n)| {
                                    (
                                        name.to_string(),
                                        Json::Int(n.load(Ordering::Relaxed) as i64),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "queue".to_string(),
                Json::Object(vec![
                    ("capacity".to_string(), Json::Int(self.options.queue as i64)),
                    (
                        "depth".to_string(),
                        Json::Int(m.queue_depth.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "peak".to_string(),
                        Json::Int(m.queue_peak.load(Ordering::Relaxed) as i64),
                    ),
                ]),
            ),
            (
                "store".to_string(),
                Json::Object(vec![
                    (
                        "mem_entries".to_string(),
                        Json::Int(store.mem_entries as i64),
                    ),
                    (
                        "mem_capacity".to_string(),
                        Json::Int(store.mem_capacity as i64),
                    ),
                    ("mem_bytes".to_string(), Json::Int(store.mem_bytes as i64)),
                    ("mem_hits".to_string(), Json::Int(store.mem_hits as i64)),
                    ("mem_misses".to_string(), Json::Int(store.mem_misses as i64)),
                    ("evictions".to_string(), Json::Int(store.evictions as i64)),
                    ("disk_hits".to_string(), Json::Int(store.disk_hits as i64)),
                    (
                        "disk_misses".to_string(),
                        Json::Int(store.disk_misses as i64),
                    ),
                    ("inserts".to_string(), Json::Int(store.inserts as i64)),
                    (
                        "disk_entries".to_string(),
                        Json::Int(self.store.disk_len() as i64),
                    ),
                ]),
            ),
            (
                "engine".to_string(),
                Json::Object(vec![
                    (
                        "obligations".to_string(),
                        Json::Int(m.obligations.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "cache_hits".to_string(),
                        Json::Int(m.cache_hits.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "prover_calls".to_string(),
                        Json::Int(m.prover_calls.load(Ordering::Relaxed) as i64),
                    ),
                ]),
            ),
            ("contexts".to_string(), {
                let c = self.contexts.metrics();
                // `warm` counts retained contexts, not keys: a key holds
                // one context per concurrent borrower.
                Json::Object(vec![
                    ("warm".to_string(), Json::Int(c.size as i64)),
                    ("hits".to_string(), Json::Int(c.hits as i64)),
                    ("misses".to_string(), Json::Int(c.misses as i64)),
                    ("evictions".to_string(), Json::Int(c.evictions as i64)),
                ])
            }),
            ("front_end".to_string(), {
                let f = self.cutoffs.metrics();
                Json::Object(vec![
                    ("cutoff_keys".to_string(), Json::Int(f.keys as i64)),
                    ("backgrounds".to_string(), Json::Int(f.backgrounds as i64)),
                    (
                        "background_hits".to_string(),
                        Json::Int(f.background_hits as i64),
                    ),
                    (
                        "background_misses".to_string(),
                        Json::Int(f.background_misses as i64),
                    ),
                ])
            }),
            (
                "latency_millis".to_string(),
                Json::Object(vec![
                    ("count".to_string(), Json::Int(count as i64)),
                    ("p50".to_string(), Json::Float(percentile(&latencies, 0.50))),
                    ("p95".to_string(), Json::Float(percentile(&latencies, 0.95))),
                    ("p99".to_string(), Json::Float(percentile(&latencies, 0.99))),
                    (
                        "max".to_string(),
                        Json::Float(latencies.last().copied().unwrap_or(0.0)),
                    ),
                ]),
            ),
        ])
    }
}

/// One queued proving request: the parsed request plus the channel its
/// session blocks on for the rendered response.
struct Job {
    request: Request,
    reply: SyncSender<String>,
}

/// The resident verification service. See the [module docs](self) for
/// the threading and admission model.
pub struct Server {
    listener: UnixListener,
    shared: Arc<Shared>,
}

/// A server running on a background thread (tests, benches, and the
/// CLI's foreground wrapper).
pub struct ServerHandle {
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    socket: PathBuf,
}

impl ServerHandle {
    /// The socket path the server listens on.
    pub fn socket(&self) -> &std::path::Path {
        &self.socket
    }

    /// Waits for the server to stop (after a `shutdown` request).
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O error, if it died on one.
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().expect("server thread panicked")
    }
}

impl Server {
    /// Opens the shared store and binds the socket. A stale socket file
    /// at the path is removed first (Unix sockets do not unlink
    /// themselves).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cache directory, event log, or
    /// socket cannot be created.
    pub fn bind(options: ServeOptions) -> std::io::Result<Server> {
        let store = Arc::new(match &options.cache_dir {
            Some(dir) => TieredStore::at_dir(dir, options.mem_capacity)?,
            None => TieredStore::in_memory(options.mem_capacity),
        });
        let events = match &options.events {
            Some(path) => Some(Mutex::new(EventLogWriter::create(path)?)),
            None => None,
        };
        let _ = std::fs::remove_file(&options.socket);
        let listener = UnixListener::bind(&options.socket)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                store,
                contexts: Arc::new(ContextPool::with_capacity(DEFAULT_CONTEXT_CAPACITY)),
                cutoffs: Arc::new(CutoffMap::with_capacity(options.mem_capacity)),
                metrics: Metrics::default(),
                stop: AtomicBool::new(false),
                started: Instant::now(),
                events,
                options,
            }),
        })
    }

    /// The socket path the server listens on.
    pub fn socket(&self) -> &std::path::Path {
        &self.shared.options.socket
    }

    /// Serves until a `shutdown` request, then drains the queue, joins
    /// the workers, and removes the socket file.
    ///
    /// # Errors
    ///
    /// Returns the accept loop's I/O error, if any.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, shared } = self;
        let workers = match shared.options.workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        let (job_tx, job_rx) = sync_channel::<Job>(shared.options.queue.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut pool = Vec::with_capacity(workers);
        for _ in 0..workers {
            let shared = shared.clone();
            let job_rx: Arc<Mutex<Receiver<Job>>> = job_rx.clone();
            pool.push(std::thread::spawn(move || loop {
                let job = job_rx.lock().expect("queue lock poisoned").recv();
                let Ok(job) = job else {
                    break; // every sender dropped: server is done
                };
                shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                let rendered = shared.serve_proving(&job.request, false);
                let _ = job.reply.send(rendered); // session may have gone
            }));
        }

        if !shared.options.quiet {
            eprintln!(
                "serve: listening on {} ({} workers, queue {}, cache {})",
                shared.options.socket.display(),
                workers,
                shared.options.queue,
                shared
                    .options
                    .cache_dir
                    .as_ref()
                    .map(|d| d.display().to_string())
                    .unwrap_or_else(|| "memory".to_string()),
            );
        }

        for stream in listener.incoming() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let shared = shared.clone();
            let job_tx = job_tx.clone();
            std::thread::spawn(move || session(&shared, stream, &job_tx));
        }
        drop(job_tx);
        for worker in pool {
            let _ = worker.join();
        }
        let _ = std::fs::remove_file(&shared.options.socket);
        if !shared.options.quiet {
            eprintln!(
                "serve: shut down after {} requests",
                shared.metrics.received.load(Ordering::Relaxed)
            );
        }
        Ok(())
    }

    /// Runs the server on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let socket = self.shared.options.socket.clone();
        ServerHandle {
            thread: std::thread::spawn(move || self.run()),
            socket,
        }
    }
}

/// One client session: read request lines, write response lines, in
/// order.
fn session(shared: &Shared, stream: UnixStream, job_tx: &SyncSender<Job>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else {
            break; // client hung up mid-line
        };
        if line.trim().is_empty() {
            continue;
        }
        shared.metrics.received.fetch_add(1, Ordering::Relaxed);
        let response = match parse_request(&line) {
            Err(message) => shared.error(None, &message),
            Ok(request) => {
                shared.metrics.by_cmd[cmd_index(request.command.name())]
                    .fetch_add(1, Ordering::Relaxed);
                match &request.command {
                    Command::Stats => {
                        shared.metrics.answered.fetch_add(1, Ordering::Relaxed);
                        ok_response(request.id, "stats", false, 0.0, shared.stats_json(), None)
                    }
                    Command::Shutdown => {
                        shared.metrics.answered.fetch_add(1, Ordering::Relaxed);
                        let response = ok_response(
                            request.id,
                            "shutdown",
                            false,
                            0.0,
                            Json::Object(vec![("shutdown".to_string(), Json::Bool(true))]),
                            None,
                        );
                        let _ = writeln!(writer, "{response}");
                        let _ = writer.flush();
                        shared.stop.store(true, Ordering::SeqCst);
                        // Unblock the accept loop so it observes the flag.
                        let _ = UnixStream::connect(&shared.options.socket);
                        return;
                    }
                    _ if shared.stop.load(Ordering::SeqCst) => {
                        shared.error(request.id, "server is shutting down")
                    }
                    _ => dispatch(shared, job_tx, request),
                }
            }
        };
        if writeln!(writer, "{response}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break; // client hung up; the event log already has the events
        }
    }
}

/// Admission control: enqueue for the pool, or degrade on a full queue.
fn dispatch(shared: &Shared, job_tx: &SyncSender<Job>, request: Request) -> String {
    let (reply_tx, reply_rx) = sync_channel::<String>(1);
    let depth = shared.metrics.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    shared
        .metrics
        .queue_peak
        .fetch_max(depth, Ordering::Relaxed);
    match job_tx.try_send(Job {
        request,
        reply: reply_tx,
    }) {
        Ok(()) => reply_rx
            .recv()
            .unwrap_or_else(|_| error_response(None, "worker dropped the request")),
        Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
            // Queue full: answer now, degraded, on the session thread.
            shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
            shared.serve_proving(&job.request, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{percentile, Latencies, LATENCY_WINDOW};

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn latency_window_keeps_the_most_recent_samples() {
        let extra = 37;
        let mut latencies = Latencies::default();
        for i in 0..LATENCY_WINDOW + extra {
            latencies.push(i as f64);
        }
        assert_eq!(latencies.count, (LATENCY_WINDOW + extra) as u64);
        let sorted = latencies.sorted();
        assert_eq!(sorted.len(), LATENCY_WINDOW);
        // The oldest `extra` samples were overwritten.
        assert_eq!(sorted[0], extra as f64);
        assert_eq!(
            sorted.last().copied(),
            Some((LATENCY_WINDOW + extra - 1) as f64)
        );
    }
}
