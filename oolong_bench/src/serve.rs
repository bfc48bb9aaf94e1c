//! `serve_mix`: the resident daemon (`oolong serve`) under a seeded
//! request mix from two connections.
//!
//! Phase A is an open loop: requests are due at a fixed rate whatever the
//! daemon does, each connection pipelines its share, and latency runs from
//! when a request was due, so a stall counts against every request queued
//! behind it. Phase B is a closed loop: each connection sends its next
//! request when the previous answer arrives, which measures throughput.
//!
//! The mix repeats every ten requests: six `check`s of paper units (warm
//! after the set-up checked each once), two `explain`s of fresh
//! seeded-violation units covering all five bug kinds, one `check` of a
//! fresh invariant or read-effect unit, and one `infer` over a fresh
//! stripped unit. Every unit travels inline; the daemon resolves no names.

use crate::calibrate;
use crate::inputs::{self, WORKERS};
use crate::measure::{median, peak_rss_mb, percentile, Outcome};
use crate::mirror::{Mirror, MirrorPass};
use crate::trace::Recorder;
use crate::truth;
use crate::workloads::{check_mirror, paired, repeated_setup, EndToEnd, TraceLog};
use crate::Config;
use oolong_corpus::{
    generate_invariant_source, generate_read_effect_source, generate_seeded_violation_source,
    generate_unannotated_source, UnannotatedConfig,
};
use oolong_engine::{json, stats_to_json, BatchUnit, Engine, EngineOptions, Json};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Phase A's request rate.
const RATE_PER_S: f64 = 100.0;
/// Phase A's share of the run; phase B takes the rest.
const OPEN_SHARE: f64 = 0.6;
/// Phase B's throughput is the median over this many equal windows.
const WINDOWS: usize = 8;
/// Longest a response may take before the connection counts as dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// What a request asks, and what makes its answer correct.
#[derive(Debug, Clone)]
enum Ask {
    /// `check` of a paper unit: the hand-written verdict table.
    Paper,
    /// `check` of a fresh invariant or read-effect unit: all verify.
    Fresh,
    /// `explain` of a seeded violation: the bug's obligation kind.
    Explain { proc: String, kind: &'static str },
    /// `infer` over a stripped unit: the inferred frames re-verify.
    Infer,
}

#[derive(Debug, Clone)]
struct Request {
    id: u64,
    ask: Ask,
    unit: BatchUnit,
    line: String,
}

impl Request {
    /// A request for `unit`, with its protocol line rendered.
    fn new(id: u64, ask: Ask, unit: BatchUnit) -> Request {
        let mut members = vec![
            ("id".to_string(), Json::Int(id as i64)),
            ("cmd".to_string(), Json::Str(cmd(&ask).to_string())),
            (
                "unit".to_string(),
                Json::Object(vec![
                    ("name".to_string(), Json::Str(unit.name.clone())),
                    ("source".to_string(), Json::Str(unit.source.clone())),
                ]),
            ),
        ];
        if let Ask::Explain { proc, .. } = &ask {
            members.push(("proc".to_string(), Json::Str(proc.clone())));
        }
        Request {
            id,
            ask,
            unit,
            line: Json::Object(members).render(),
        }
    }
}

/// The protocol command that asks `ask`.
fn cmd(ask: &Ask) -> &'static str {
    match ask {
        Ask::Paper | Ask::Fresh => "check",
        Ask::Explain { .. } => "explain",
        Ask::Infer => "infer",
    }
}

/// The `id`-th request of the seeded mix.
fn request(seed: u64, id: u64) -> Request {
    let (cycle, slot) = (id / 10, id % 10);
    let base = seed.wrapping_mul(1_000_003);
    let (ask, unit) = match slot {
        0..=5 => {
            let mut units = inputs::paper_units();
            let index = ((cycle * 6 + slot) % units.len() as u64) as usize;
            (Ask::Paper, units.swap_remove(index))
        }
        6 | 7 => {
            // Consecutive generator seeds cycle through all five bug kinds.
            let violation = generate_seeded_violation_source(base + cycle * 2 + (slot - 6));
            let ask = Ask::Explain {
                proc: violation.proc_name.clone(),
                kind: violation.bug.expected_kind(),
            };
            let unit = BatchUnit {
                name: format!("explain-{id}"),
                source: violation.source,
            };
            (ask, unit)
        }
        8 => {
            let (name, source) = if cycle % 2 == 0 {
                ("invariant", generate_invariant_source(base + cycle))
            } else {
                ("reads", generate_read_effect_source(base + cycle))
            };
            let unit = BatchUnit {
                name: format!("{name}-{id}"),
                source,
            };
            (Ask::Fresh, unit)
        }
        _ => {
            let generated =
                generate_unannotated_source(base + cycle, &UnannotatedConfig::default());
            let unit = BatchUnit {
                name: format!("infer-{id}"),
                source: generated.source,
            };
            (Ask::Infer, unit)
        }
    };
    Request::new(id, ask, unit)
}

/// A running daemon with its own socket and cache directory.
struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    /// Starts `oolong serve` with a fresh cache directory and waits until
    /// its socket accepts connections.
    fn start(oolong: &Path, dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let socket = dir.join("s.sock");
        let child = Command::new(oolong)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .args([
                "--workers",
                &WORKERS.to_string(),
                "--queue",
                "64",
                "--quiet",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", oolong.display()))?;
        let mut daemon = Daemon { child, socket, dir };
        let deadline = Instant::now() + Duration::from_secs(30);
        while UnixStream::connect(&daemon.socket).is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("the daemon exited at start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("the daemon did not accept connections within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<Connection, String> {
        let stream =
            UnixStream::connect(&self.socket).map_err(|e| format!("cannot connect: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("cannot set a read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection {
            writer: stream,
            reader,
        })
    }

    /// Asks the daemon to stop and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut connection = self.connect()?;
        connection.send(r#"{"cmd":"shutdown"}"#);
        connection.receive().ok_or("no answer to shutdown")?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        status
            .success()
            .then_some(())
            .ok_or(format!("the daemon exited with {status}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After a clean shutdown both calls fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct Connection {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Connection {
    /// Writes one request line; `false` when the connection is gone.
    fn send(&mut self, line: &str) -> bool {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .is_ok()
    }

    /// Reads one response line, unparsed; `None` when the connection
    /// dropped or timed out.
    fn receive(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => Some(line),
            _ => None,
        }
    }
}

/// One answered (or dropped) request, timed on the client's clock in
/// nanoseconds since the run's epoch. Responses are read raw at receipt
/// and parsed afterwards.
#[derive(Debug, Clone)]
struct Exchange {
    request: usize,
    due_ns: u64,
    sent_ns: u64,
    received_ns: u64,
    raw: Option<String>,
}

/// One obligation as the daemon reported it.
#[derive(Debug, Clone, PartialEq)]
struct Served {
    proc: String,
    verdict: String,
    stats: Option<String>,
    fingerprint: Option<String>,
}

/// What one response says, once checked.
#[derive(Debug, Default)]
struct Checked {
    ok: bool,
    cmd: &'static str,
    execute_ms: f64,
    bytes: usize,
    obligations: u64,
    /// Every verdict of the answer is decided (not `unknown`).
    decided: bool,
    degraded: bool,
    error: bool,
    confirmed: Option<bool>,
    kind_match: Option<bool>,
    infer_verified: Option<bool>,
    infer_rounds: Option<u64>,
    served: Vec<Served>,
}

fn ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Checks one response against its request's known answer.
fn check(request: &Request, raw: Option<&str>, out: &mut Outcome) -> Checked {
    let mut c = Checked {
        cmd: cmd(&request.ask),
        ..Checked::default()
    };
    let Some(raw) = raw else {
        out.fail(format!("request {}: the connection dropped", request.id));
        return c;
    };
    c.bytes = raw.trim_end().len();
    let value = match json::parse(raw.trim_end()) {
        Ok(v) => v,
        Err(e) => {
            out.fail(format!("request {}: unparseable response: {e}", request.id));
            return c;
        }
    };
    if !matches!(value.get("ok"), Some(Json::Bool(true))) {
        c.error = true;
        let message = value.get("error").and_then(Json::as_str).unwrap_or("?");
        out.fail(format!("request {}: error response: {message}", request.id));
        return c;
    }
    if value.get("id").and_then(Json::as_u64) != Some(request.id) {
        out.fail(format!("request {}: answer carries another id", request.id));
        return c;
    }
    c.degraded = matches!(value.get("degraded"), Some(Json::Bool(true)));
    if c.degraded {
        out.fail(format!("request {}: degraded answer", request.id));
        return c;
    }
    c.execute_ms = value.get("millis").and_then(Json::as_f64).unwrap_or(0.0);
    let result = value.get("result").cloned().unwrap_or(Json::Null);
    let impls = result.get("impls").and_then(Json::as_array).unwrap_or(&[]);
    let field = |o: &Json, k: &str| o.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let mut wrong = Vec::new();
    match &request.ask {
        Ask::Paper | Ask::Fresh => {
            let fingerprints = value
                .get("events")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter(|e| e.get("event").and_then(Json::as_str) == Some("obligation_started"))
                .map(|e| {
                    e.get("fingerprint")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                });
            c.served = impls
                .iter()
                .zip(fingerprints)
                .map(|(i, fingerprint)| Served {
                    proc: field(i, "proc"),
                    verdict: field(i, "verdict"),
                    stats: i.get("stats").map(Json::render),
                    fingerprint,
                })
                .collect();
            wrong = truth::check_verdicts(c.served.iter().map(|s| {
                (
                    request.unit.name.as_str(),
                    s.proc.as_str(),
                    s.verdict.as_str(),
                )
            }));
            if c.served.is_empty() {
                wrong.push("no obligations".to_string());
            }
            c.obligations = c.served.len() as u64;
            c.decided = c.served.iter().all(|s| s.verdict != "unknown");
        }
        Ask::Explain { proc, kind } => {
            c.obligations = impls.len() as u64;
            c.decided = impls.iter().all(|i| field(i, "verdict") != "unknown");
            match impls.iter().find(|i| field(i, "proc") == *proc) {
                Some(i) => {
                    let diagnosis = i.get("diagnosis").cloned().unwrap_or(Json::Null);
                    let got = field(&diagnosis, "kind");
                    c.kind_match = Some(got == *kind);
                    c.confirmed =
                        Some(matches!(diagnosis.get("confirmed"), Some(Json::Bool(true))));
                    if got != *kind {
                        wrong.push(format!("diagnosed `{got}`, seeded `{kind}`"));
                    }
                }
                None => wrong.push(format!("no diagnosis for `{proc}`")),
            }
        }
        Ask::Infer => {
            let verified = matches!(result.get("verified"), Some(Json::Bool(true)));
            c.infer_verified = Some(verified);
            c.decided = verified;
            c.infer_rounds = result.get("rounds").and_then(Json::as_u64);
            if !verified {
                wrong.push("inferred frames did not re-verify".to_string());
            }
        }
    }
    // One failed request, however many of its verdicts are wrong.
    if !wrong.is_empty() {
        out.fail(format!(
            "request {} ({}): {}",
            request.id,
            request.unit.name,
            wrong.join("; ")
        ));
    }
    c.ok = wrong.is_empty();
    c
}

/// Phase A: every connection pipelines its share of `requests`, each
/// written when due; a reader per connection takes responses in order.
fn open_loop(
    daemon: &Daemon,
    requests: &[Request],
    epoch: Instant,
) -> Result<Vec<Exchange>, String> {
    let interval_ns = (1e9 / RATE_PER_S) as u64;
    let start_ns = ns(epoch) + 20_000_000;
    let connections: Vec<Connection> = (0..WORKERS)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let mut exchanges: Vec<Exchange> = Vec::with_capacity(requests.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, connection) in connections.into_iter().enumerate() {
            let Connection {
                mut writer,
                mut reader,
            } = connection;
            let mine: Vec<usize> = (c..requests.len()).step_by(WORKERS).collect();
            let due = move |j: usize| start_ns + j as u64 * interval_ns;
            let sends = {
                let mine = mine.clone();
                scope.spawn(move || {
                    let mut sent = Vec::with_capacity(mine.len());
                    for j in mine {
                        let wait = due(j).saturating_sub(ns(epoch));
                        if wait > 0 {
                            std::thread::sleep(Duration::from_nanos(wait));
                        }
                        let line = format!("{}\n", requests[j].line);
                        let at = ns(epoch);
                        if writer.write_all(line.as_bytes()).is_err() {
                            break;
                        }
                        sent.push(at);
                    }
                    sent
                })
            };
            let expected = mine.len();
            let receives = scope.spawn(move || {
                let mut received = Vec::with_capacity(expected);
                for _ in 0..expected {
                    let mut line = String::new();
                    let read = reader.read_line(&mut line);
                    let at = ns(epoch);
                    match read {
                        Ok(n) if n > 0 => received.push((at, Some(line))),
                        _ => break,
                    }
                }
                received
            });
            handles.push((mine, sends, receives));
        }
        for (mine, sends, receives) in handles {
            let sent = sends.join().expect("writer thread panicked");
            let received = receives.join().expect("reader thread panicked");
            for (k, j) in mine.into_iter().enumerate() {
                let due_ns = start_ns + j as u64 * interval_ns;
                let sent_ns = sent.get(k).copied().unwrap_or(due_ns);
                let (received_ns, raw) = received.get(k).cloned().unwrap_or((sent_ns, None));
                exchanges.push(Exchange {
                    request: j,
                    due_ns,
                    sent_ns,
                    received_ns,
                    raw,
                });
            }
        }
    });
    exchanges.sort_by_key(|e| e.request);
    Ok(exchanges)
}

/// Phase B: each connection sends its next request when the previous
/// answer arrives, until `until`. Requests continue the mix from `first`.
fn closed_loop(
    daemon: &Daemon,
    seed: u64,
    first: u64,
    until: Instant,
    epoch: Instant,
) -> Result<Vec<(Request, Exchange)>, String> {
    let next = AtomicU64::new(first);
    let connections: Vec<Connection> = (0..WORKERS)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .map(|mut connection| {
                let next = &next;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    while Instant::now() < until {
                        let request = request(seed, next.fetch_add(1, Ordering::Relaxed));
                        let sent_ns = ns(epoch);
                        let raw = if connection.send(&request.line) {
                            connection.receive()
                        } else {
                            None
                        };
                        let received_ns = ns(epoch);
                        let dropped = raw.is_none();
                        done.push((
                            request,
                            Exchange {
                                request: 0,
                                due_ns: sent_ns,
                                sent_ns,
                                received_ns,
                                raw,
                            },
                        ));
                        if dropped {
                            break;
                        }
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("client thread panicked"));
        }
    });
    Ok(out)
}

fn ms(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e6
}

fn share(values: impl Iterator<Item = Option<bool>>) -> f64 {
    let seen: Vec<bool> = values.flatten().collect();
    seen.iter().filter(|&&b| b).count() as f64 / seen.len().max(1) as f64
}

pub fn serve_mix(cfg: &Config, out: &mut Outcome) -> Result<Option<TraceLog>, String> {
    let open_s = cfg.seconds * OPEN_SHARE;
    let open_count = ((open_s * RATE_PER_S).round() as usize).max(1);
    let dir = |k: usize| {
        PathBuf::from("target/oolong-bench").join(format!("serve-{}-{k}", std::process::id()))
    };

    // Set-up: start a daemon on an empty cache, check each paper unit once
    // so the paper part of the mix is warm, and generate phase A.
    let mut started: Result<(), String> = Ok(());
    let (prepared, setup) = repeated_setup(out, |checks, k| {
        let daemon = match Daemon::start(&cfg.oolong, dir(k)) {
            Ok(d) => d,
            Err(e) => {
                started = Err(e);
                return None;
            }
        };
        let mut warm = daemon.connect().ok()?;
        for (i, unit) in inputs::paper_units().into_iter().enumerate() {
            let request = Request::new(1_000_000_000 + i as u64, Ask::Paper, unit);
            let raw = if warm.send(&request.line) {
                warm.receive()
            } else {
                None
            };
            check(&request, raw.as_deref(), checks);
        }
        let requests: Vec<Request> = (0..open_count as u64)
            .map(|id| request(cfg.seed, id))
            .collect();
        Some((daemon, requests))
    });
    started?;
    let (daemon, requests) = prepared.ok_or("the daemon took no connections")?;

    // Unlike the in-process workloads, serve_mix reports raw times: the
    // daemon's speed does not follow the calibration reference (over ten
    // runs the reference-normalized median latency spread 0.31 where the
    // raw one spread 0.10). The slowdown is still measured and printed.
    let slowdown = calibrate::slowdown_now();
    let epoch = Instant::now();
    let open = open_loop(&daemon, &requests, epoch)?;
    // Read after phase A, whose work is fixed, so the peak does not grow
    // with however many requests phase B fits in.
    let daemon_rss = peak_rss_mb(Some(daemon.child.id()));
    let closed_start = Instant::now();
    let closed_s = cfg.seconds - open_s;
    let closed = closed_loop(
        &daemon,
        cfg.seed,
        open_count as u64,
        closed_start + Duration::from_secs_f64(closed_s),
        epoch,
    )?;
    daemon.shutdown()?;

    // Phase A: latency from due time, failures as +∞.
    let mut raw_latencies = Vec::with_capacity(open.len());
    let mut lags = Vec::with_capacity(open.len());
    let mut checked = Vec::new();
    let mut decided = 0;
    for exchange in &open {
        let request = &requests[exchange.request];
        let c = check(request, exchange.raw.as_deref(), out);
        raw_latencies.push(if c.ok {
            ms(exchange.due_ns, exchange.received_ns)
        } else {
            f64::INFINITY
        });
        lags.push(ms(exchange.due_ns, exchange.sent_ns));
        decided += u64::from(c.decided);
        checked.push(c);
    }
    let open_checked = checked.len();

    // Phase B: completions and obligations per window, and the part of
    // each round trip the daemon did not spend executing.
    let closed_start_ns = closed_start.duration_since(epoch).as_nanos() as u64;
    let window_ns = ((closed_s / WINDOWS as f64) * 1e9) as u64;
    let (mut done, mut done_obligations) = (vec![0u64; WINDOWS], vec![0u64; WINDOWS]);
    let mut transport = Vec::new();
    for (request, exchange) in &closed {
        let c = check(request, exchange.raw.as_deref(), out);
        let w = (exchange.received_ns.saturating_sub(closed_start_ns) / window_ns.max(1)) as usize;
        if c.ok && w < WINDOWS {
            done[w] += 1;
            done_obligations[w] += c.obligations;
        }
        if c.ok {
            let round_trip = ms(exchange.sent_ns, exchange.received_ns);
            transport.push(round_trip - c.execute_ms);
        }
        checked.push(c);
    }
    let window_s = window_ns as f64 / 1e9;
    let per_s = |counts: &[u64]| {
        let rates: Vec<f64> = counts.iter().map(|&n| n as f64 / window_s).collect();
        median(&rates)
    };

    out.attempted += checked.len() as u64;
    out.notes.push(format!(
        "phase A: {} requests at {RATE_PER_S} req/s; phase B: {} requests closed-loop on {WORKERS} connections",
        open.len(),
        closed.len()
    ));
    EndToEnd {
        setup,
        peak_rss_mb: daemon_rss.unwrap_or(0.0),
        latencies: &raw_latencies,
        raw_latencies: &raw_latencies,
        obligations_per_s: per_s(&done_obligations),
        throughput_rps: per_s(&done),
        decided_ratio: decided as f64 / open.len().max(1) as f64,
        slowdowns: &[slowdown],
    }
    .push(out);

    // Per-layer views of the daemon, from the client side.
    let execute = |cmd: Option<&str>| {
        let values: Vec<f64> = checked
            .iter()
            .filter(|c| c.ok && cmd.is_none_or(|cmd| c.cmd == cmd))
            .map(|c| c.execute_ms)
            .collect();
        median(&values)
    };
    let bytes: Vec<f64> = checked
        .iter()
        .filter(|c| c.ok)
        .map(|c| c.bytes as f64)
        .collect();
    let rounds: Vec<f64> = checked
        .iter()
        .filter_map(|c| c.infer_rounds)
        .map(|r| r as f64)
        .collect();
    let count = |f: fn(&Checked) -> bool| checked.iter().filter(|c| f(c)).count() as f64;
    out.push_extra("bench.gen_lag_p99_ms", percentile(&lags, 0.99), "ms");
    out.push_extra("serve.execute_ms", execute(None), "ms");
    out.push_extra("serve.queue_transport_ms", median(&transport), "ms");
    out.push_extra("serve.response_bytes", median(&bytes), "bytes");
    out.push_extra("serve.check_execute_ms", execute(Some("check")), "ms");
    out.push_extra("serve.explain_execute_ms", execute(Some("explain")), "ms");
    out.push_extra("serve.infer_execute_ms", execute(Some("infer")), "ms");
    out.push_extra("serve.degraded", count(|c| c.degraded), "count");
    out.push_extra("serve.errors", count(|c| c.error), "count");
    out.push_extra(
        "diagnose.confirmed_ratio",
        share(checked.iter().map(|c| c.confirmed)),
        "ratio",
    );
    out.push_extra(
        "diagnose.kind_match_ratio",
        share(checked.iter().map(|c| c.kind_match)),
        "ratio",
    );
    out.push_extra(
        "infer.verified_ratio",
        share(checked.iter().map(|c| c.infer_verified)),
        "ratio",
    );
    out.push_extra(
        "infer.rounds",
        rounds.iter().sum::<f64>() / rounds.len().max(1) as f64,
        "count",
    );

    if !cfg.trace {
        return Ok(None);
    }
    let mut trace = TraceLog::default();
    trace.append(
        "client".to_string(),
        client_spans(&open, &checked[..open_checked], epoch),
    );
    // The replay runs in this process, where the reference does track.
    let slowdown = calibrate::slowdown_now();
    replay(
        &requests,
        &open,
        &checked[..open_checked],
        slowdown,
        &mut trace,
        out,
    );
    Ok(Some(trace))
}

/// Client-side spans of phase A: each request from due to received, with
/// the generator's lateness, the round trip, and inside it the
/// daemon-reported execution time, placed to end at receipt.
fn client_spans(open: &[Exchange], checked: &[Checked], epoch: Instant) -> Vec<crate::trace::Span> {
    let mut rec = Recorder::new(epoch, 0);
    for (exchange, c) in open.iter().zip(checked) {
        rec.set_pass(exchange.request as u32);
        let root = rec.record("serve.request", exchange.due_ns, exchange.received_ns, None);
        rec.record(
            "bench.gen_lag",
            exchange.due_ns,
            exchange.sent_ns,
            Some(root),
        );
        let trip = rec.record(
            "serve.round_trip",
            exchange.sent_ns,
            exchange.received_ns,
            Some(root),
        );
        let execute_ns = (c.execute_ms * 1e6) as u64;
        rec.record(
            "serve.execute",
            exchange
                .received_ns
                .saturating_sub(execute_ns)
                .max(exchange.sent_ns),
            exchange.received_ns,
            Some(trip),
        );
    }
    rec.into_spans()
}

/// Replays phase A's `check` requests, in order, through an in-process
/// engine shaped like the daemon's (one worker per request, one resident
/// store and context pool) and through the traced mirror. The mirror must
/// match both that engine and what the daemon answered.
fn replay(
    requests: &[Request],
    open: &[Exchange],
    checked: &[Checked],
    slowdown: f64,
    trace: &mut TraceLog,
    out: &mut Outcome,
) {
    let engine = Engine::new(EngineOptions {
        workers: 1,
        ..EngineOptions::default()
    })
    .expect("an in-memory engine opens");
    let mirror = Mirror::new(1);
    let epoch = Instant::now();
    for (exchange, c) in open.iter().zip(checked) {
        let request = &requests[exchange.request];
        if !matches!(request.ask, Ask::Paper | Ask::Fresh) || !c.ok {
            continue;
        }
        let batch = std::slice::from_ref(&request.unit);
        let pass = request.id as u32;
        let (report, ms, mirrored) = paired(
            || engine.check_batch(batch),
            Some(|| mirror.check_batch(batch, pass, epoch)),
            pass,
        );
        let mirrored = mirrored.expect("the mirror ran");
        for diff in served_fidelity(&c.served, &mirrored) {
            out.reject(format!(
                "request {}: mirror diverged from the daemon: {diff}",
                request.id
            ));
        }
        check_mirror(&report, &mirrored, out);
        trace.add_pair(ms, mirrored, slowdown);
    }
}

fn served_fidelity(served: &[Served], pass: &MirrorPass) -> Vec<String> {
    let mirrored: Vec<Served> = pass
        .obligations
        .iter()
        .map(|t| Served {
            proc: t.report.proc_name.clone(),
            verdict: t.report.verdict.label().to_string(),
            stats: t.report.verdict.stats().map(|s| stats_to_json(s).render()),
            fingerprint: t.report.fingerprint.map(|f| f.to_string()),
        })
        .collect();
    if mirrored == served {
        Vec::new()
    } else {
        vec![format!("{} served obligations differ", served.len())]
    }
}
