//! `BENCHMARK.json` and run files: reading them, and comparing two sets of
//! runs metric by metric.
//!
//! A run file (written by `oolong_bench run --out FILE`) is
//! `{"runs": [{"workload", "seed", "trace", "result"}]}`, where `result`
//! is a workload's result line. `compare A B` prints, per workload and
//! end-to-end metric, both medians and quartiles, the bound, and a
//! verdict: `PASS` (B's median is no worse than A's by more than the
//! bound), `WORSE`, or `UNRESOLVED` (either side's quartile spread is
//! wider than the bound, so the runs cannot tell).

use crate::measure::{median, quartiles, spread};
use oolong_engine::{json, Json};
use std::collections::BTreeMap;

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness reads.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(value: Option<&Json>) -> Result<Vec<MetricSpec>, String> {
    value
        .and_then(Json::as_array)
        .ok_or("metric list missing")?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("metric without `{k}`"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                lower_is_better: field("better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Reads `BENCHMARK.json` from the working directory (the repository
    /// root, where the benchmark runs).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
        let value = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            run_seconds: value
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            end_to_end: metric_specs(value.get("end_to_end"))?,
            per_layer: metric_specs(value.get("per_layer"))?,
        })
    }

    /// The spec of a metric of either kind.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Metric values of the untraced runs in a run file, by workload and
/// metric name.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = value
        .get("runs")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: no `runs` array"))?;
    let mut samples = Samples::new();
    for run in runs {
        if matches!(run.get("trace"), Some(Json::Bool(true))) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: run without a workload"))?;
        let Some(Json::Object(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}: run without metrics"));
        };
        for (name, metric) in metrics {
            if let Some(v) = metric.get("value").and_then(Json::as_f64) {
                samples
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(samples)
}

/// The verdict of one metric on one workload.
pub fn verdict(a: &[f64], b: &[f64], spec: &MetricSpec) -> &'static str {
    let bound = spec.bound.unwrap_or(0.0);
    if spread(a) > bound || spread(b) > bound {
        return "UNRESOLVED";
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if spec.lower_is_better {
        mb - ma
    } else {
        ma - mb
    };
    if worse_by > bound * ma.abs() {
        "WORSE"
    } else {
        "PASS"
    }
}

/// `oolong_bench compare A.json B.json`. Exits nonzero when any metric is
/// WORSE.
pub fn cmd_compare(args: &[String]) -> Result<std::process::ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: oolong_bench compare A.json B.json".to_string());
    };
    let spec = Spec::load()?;
    let (a, b) = (load_runs(a_path)?, load_runs(b_path)?);
    println!(
        "{:<12} {:<18} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound"
    );
    let mut worse = false;
    for workload in crate::WORKLOADS {
        for metric in &spec.end_to_end {
            let get = |s: &Samples| {
                s.get(workload)
                    .and_then(|m| m.get(&metric.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (get(&a), get(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, metric);
            worse |= v == "WORSE";
            let range = |v: &[f64]| {
                let [q1, _, q3] = quartiles(v);
                format!("{q1:.4}..{q3:.4}")
            };
            println!(
                "{:<12} {:<18} {:>12.4} {:>25} {:>12.4} {:>25} {:>6}  {v}",
                workload,
                metric.name,
                median(&va),
                range(&va),
                median(&vb),
                range(&vb),
                metric.bound.map_or("-".to_string(), |b| format!("{b}")),
            );
        }
    }
    Ok(if worse {
        std::process::ExitCode::FAILURE
    } else {
        std::process::ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "latency_p50_ms".to_string(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(
            verdict(&a, &[104.0, 105.0, 104.5, 104.0, 105.0], &spec(0.1)),
            "PASS"
        );
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 120.5, 120.0, 121.0], &spec(0.1)),
            "WORSE"
        );
        assert_eq!(
            verdict(&a, &[50.0, 150.0, 90.0, 200.0, 10.0], &spec(0.1)),
            "UNRESOLVED"
        );
    }
}
