//! Sample statistics, process memory, and the run result every workload
//! prints.

use std::fmt::Write as _;

/// A sorted copy of a sample; failed attempts are `+∞` and sort last.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank percentile (`q` in `0..=1`) of an unsorted sample; `0`
/// for an empty one. The same rule as the serve daemon's `stats`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (midpoint of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match a check done with Python. A single value
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let n = 4;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, cut) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        *cut = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MiB; `None` when the
/// process is gone or `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports: correctness, attempt accounting, the
/// machine-read metrics, and further human-read metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every check against a known answer passed.
    pub correct: bool,
    /// Units of work attempted (obligations, or requests for serve).
    pub attempted: u64,
    /// Attempts that failed: wrong verdicts, errors, degraded answers.
    pub failed: u64,
    /// The metrics `BENCHMARK.json` lists for this kind of run, in order.
    pub metrics: Vec<Metric>,
    /// Further metrics printed for people, not part of the result line.
    pub extra: Vec<Metric>,
    /// Human-readable notes (sample counts, failures).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with no failed check yet.
    pub fn passing() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn push_extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed attempt: a wrong answer, an error, a dropped or
    /// degraded response.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.reject(message);
    }

    /// Records a failed check that is not itself an attempt: a wrong
    /// answer during set-up, or a traced mirror diverging from the engine.
    pub fn reject(&mut self, message: String) {
        self.correct = false;
        eprintln!("oolong_bench: FAILED: {message}");
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed`, and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; a failed (`+∞`) statistic becomes the largest double.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        format!("{}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentiles_use_nearest_rank_and_sort_failures_last() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(percentile(&[1.0, f64::INFINITY], 0.99), f64::INFINITY);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
