//! Metric names, units and the result line.
//!
//! `E2E` and `LAYERS` are the benchmark's metric catalogue; the unit
//! test at the bottom keeps them identical to `BENCHMARK.json`.

use crate::stats::Tally;
use crate::trace::Tracer;
use std::time::Duration;

/// Wall-clock guard on every request, far above any request's run time.
/// A request that reaches it failed: the clock, not its input, ended its
/// work.
pub const GUARD: Duration = Duration::from_secs(20);

/// End-to-end metrics: name, unit and definition.
pub const E2E: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "median of fresh set-ups: parse texts, sessions, MRRGs (one before each mapper request; serve: 5, each adding service, reactor and hot-set fill)"),
    ("throughput_ops", "1/s", "completed requests / time of the timed phase (serve: median over 100-request windows)"),
    ("latency_p50_ms", "ms", "median client-side request latency (serve: median of window medians)"),
    ("latency_tail_ms", "ms", "highest percentile with at least 10 requests beyond it, named in the header (serve: per window)"),
    ("cold_p50_ms", "ms", "median latency of requests that needed a solve (every request on table2 and descent)"),
    ("decided_share", "share", "map requests answered 1 or 0 / all map requests"),
    ("routing_geomean", "count", "geometric mean of routing resources (objective (10)) over mapped requests"),
    ("peak_rss_mb", "MiB", "peak resident memory of the process"),
];

/// Per-layer metrics: name, unit, the end-to-end metric it should move,
/// and the workloads it is heavy / light on.
pub const LAYERS: [(&str, &str, &str, &str, &str); 31] = [
    ("mrrg.build_ms", "ms", "setup_s", "all", "-"),
    ("mrrg.nodes", "count", "setup_s", "all", "-"),
    (
        "formulation.build_ms",
        "ms",
        "latency_p50_ms",
        "table2",
        "serve",
    ),
    (
        "formulation.vars",
        "count",
        "latency_p50_ms",
        "table2",
        "serve",
    ),
    (
        "formulation.constraints",
        "count",
        "latency_p50_ms",
        "table2",
        "serve",
    ),
    (
        "formulation.refuted",
        "count",
        "latency_p50_ms",
        "table2",
        "serve",
    ),
    ("presolve.ms", "ms", "latency_p50_ms", "table2", "descent"),
    (
        "presolve.reduction",
        "share",
        "latency_p50_ms",
        "table2",
        "descent",
    ),
    (
        "feasible.ms",
        "ms",
        "throughput_ops,latency_tail_ms,decided_share",
        "table2",
        "serve",
    ),
    (
        "feasible.conflicts",
        "count",
        "throughput_ops,latency_tail_ms,decided_share",
        "table2",
        "serve",
    ),
    (
        "feasible.props_per_s",
        "1/s",
        "throughput_ops,latency_tail_ms,decided_share",
        "table2",
        "serve",
    ),
    (
        "feasible.budget_hits",
        "count",
        "throughput_ops,latency_tail_ms,decided_share",
        "table2",
        "serve",
    ),
    (
        "descent.ms",
        "ms",
        "latency_p50_ms,throughput_ops,routing_geomean",
        "descent",
        "table2",
    ),
    (
        "descent.conflicts",
        "count",
        "latency_p50_ms,throughput_ops,routing_geomean",
        "descent",
        "table2",
    ),
    (
        "descent.incumbents",
        "count",
        "routing_geomean",
        "descent",
        "table2",
    ),
    (
        "descent.budget_hits",
        "count",
        "latency_p50_ms,routing_geomean",
        "descent",
        "table2",
    ),
    (
        "descent.optimal_share",
        "share",
        "routing_geomean",
        "descent",
        "table2",
    ),
    (
        "mapping.decode_ms",
        "ms",
        "latency_p50_ms",
        "table2,descent",
        "-",
    ),
    (
        "sim.verify_ms",
        "ms",
        "none yet (checks run outside the timed span)",
        "all",
        "-",
    ),
    (
        "min_ii.attempts",
        "count",
        "cold_p50_ms",
        "serve",
        "table2,descent",
    ),
    (
        "min_ii.capacity_shortcuts",
        "count",
        "cold_p50_ms",
        "serve",
        "table2,descent",
    ),
    (
        "service.handle_us",
        "us",
        "latency_p50_ms,throughput_ops",
        "serve",
        "table2,descent",
    ),
    (
        "service.hit_share",
        "share",
        "latency_p50_ms,throughput_ops",
        "serve",
        "table2,descent",
    ),
    (
        "service.disk_hit_share",
        "share",
        "latency_p50_ms,throughput_ops",
        "serve",
        "table2,descent",
    ),
    (
        "service.solves",
        "count",
        "cold_p50_ms",
        "serve",
        "table2,descent",
    ),
    (
        "service.solve_ms",
        "ms",
        "cold_p50_ms",
        "serve",
        "table2,descent",
    ),
    (
        "service.wait_ms",
        "ms",
        "cold_p50_ms",
        "serve",
        "table2,descent",
    ),
    (
        "wire.parse_us",
        "us",
        "latency_p50_ms",
        "serve",
        "table2,descent",
    ),
    (
        "reactor.overhead_us",
        "us",
        "latency_p50_ms,throughput_ops",
        "serve",
        "table2,descent",
    ),
    (
        "trace.overhead_share",
        "share",
        "- (traced / untraced wall time - 1)",
        "all",
        "-",
    ),
    (
        "trace.mismatches",
        "count",
        "- (traced fingerprints differing from untraced)",
        "all",
        "-",
    ),
];

/// Named metric values in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// The metrics of `catalogue` in catalogue order; a metric this
    /// workload did not record (its layer is not on the workload's path)
    /// reads 0.
    pub fn json(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let fields: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite JSON number with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Request accounting.
    pub tally: Tally,
    /// Header lines (request counts, budgets, tail percentile, ...).
    pub header: Vec<String>,
    /// End-to-end metrics of the untraced pass.
    pub e2e: Metrics,
    /// Per-layer metrics of the traced pass.
    pub layers: Metrics,
    /// Work fingerprints of the untraced pass: (request id, fingerprint).
    pub fingerprints: Vec<(u64, String)>,
    /// The traced pass's spans.
    pub tracer: Option<Tracer>,
}

impl RunResult {
    /// An empty result for `workload`.
    pub fn new(workload: &'static str) -> Self {
        RunResult {
            workload,
            tally: Tally::default(),
            header: Vec::new(),
            e2e: Metrics::default(),
            layers: Metrics::default(),
            fingerprints: Vec::new(),
            tracer: None,
        }
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Arithmetic mean, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_serve::Json;

    /// `BENCHMARK.json` lists exactly the catalogue's metrics, in order,
    /// with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |names: Vec<(&str, &str)>| -> Vec<(String, String)> {
            names
                .into_iter()
                .map(|(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(E2E.iter().map(|m| (m.0, m.1)).collect())
        );
        assert_eq!(
            listed("per_layer"),
            own(LAYERS.iter().map(|m| (m.0, m.1)).collect())
        );
    }

    #[test]
    fn unrecorded_metrics_read_zero_and_values_keep_their_digits() {
        let mut m = Metrics::default();
        m.push("a", 1.234_567_890_123, "ms");
        m.push("a", 2.5, "ms");
        let json = m.json(&[("a", "ms"), ("b", "count")]);
        assert_eq!(
            json,
            "{\"a\": {\"value\": 2.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}"
        );
        assert_eq!(number(1.234_567_890_123), "1.234567890123");
        assert_eq!(number(f64::NAN), "0");
    }
}
