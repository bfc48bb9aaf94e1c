//! Span recording for traced runs.
//!
//! Each thread records into its own [`Recorder`]: a span is a name, a
//! start and end on a clock shared by every recorder of a run, the span
//! that encloses it on the same thread, and the pass (or round, or
//! request) it belongs to. Spans stay in memory until the run ends, then
//! [`write_chrome_trace`] writes them as Chrome trace-event JSON, which
//! Perfetto and chrome://tracing open offline.
//!
//! A layer's *self time* is its span's duration minus the time its child
//! spans cover ([`self_times`]). Children never overlap on one thread, so
//! the covered time is the sum of their durations.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, pass: u32) -> Recorder {
        Recorder {
            epoch,
            pass,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn end(&mut self, index: usize) {
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Records `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = self.begin(name);
        let out = f();
        self.end(index);
        out
    }

    /// Records a finished span from explicit times (client-side serve
    /// spans, whose ends are only known when a response arrives).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: self.pass,
        });
        self.spans.len() - 1
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "every span closed");
        self.spans
    }
}

/// Per-name self time in milliseconds over one thread's spans, keeping
/// only the spans `keep` accepts (children are subtracted either way).
pub fn self_times(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, f64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        if keep(span) {
            let own = span.duration_ns().saturating_sub(covered) as f64 / 1e6;
            *out.entry(span.name).or_insert(0.0) += own;
        }
    }
    out
}

/// Writes every thread's spans as a Chrome trace-event file: one complete
/// (`"ph":"X"`) event per span, one `tid` per recorder, microsecond
/// timestamps, and the pass id and parent index as arguments.
pub fn write_chrome_trace(path: &Path, threads: &[(String, Vec<Span>)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    for (tid, (thread, spans)) in threads.iter().enumerate() {
        if !first {
            write!(out, ",")?;
        }
        first = false;
        write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{thread}\"}}}}"
        )?;
        for span in spans {
            write!(
                out,
                ",{{\"ph\":\"X\",\"cat\":\"oolong\",\"name\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"pass\":{},\"parent\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.pass,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
            )?;
        }
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 10_000_000,
                parent: None,
                pass: 0,
            },
            Span {
                name: "a",
                start_ns: 1_000_000,
                end_ns: 4_000_000,
                parent: Some(0),
                pass: 0,
            },
            Span {
                name: "b",
                start_ns: 2_000_000,
                end_ns: 3_000_000,
                parent: Some(1),
                pass: 0,
            },
        ];
        let times = self_times(&spans, |_| true);
        assert_eq!(times["root"], 7.0);
        assert_eq!(times["a"], 2.0);
        assert_eq!(times["b"], 1.0);
    }
}
