//! The run's printed report and its final JSON line.
//!
//! Every metric a run measures is printed by name with its unit on its
//! own `metric` line. The last line of standard output is one JSON
//! object carrying the metrics `BENCHMARK.json` declares for the run's
//! mode: the end-to-end set for an untraced run, the per-layer set for
//! a traced run.

use crate::stats::{Outcomes, Summary};

/// End-to-end metrics every untraced run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("throughput_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("approx_mse", "mse"),
];

/// Per-layer metrics every traced run reports: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("net.self_us.p50", "us"),
    ("net.codec_ns", "ns"),
    ("served.roundtrip_us.p50", "us"),
    ("served.wait_us.p50", "us"),
    ("served.batch_rows_mean", "rows"),
    ("served.backlog_max", "count"),
    ("served.completed_ratio", "ratio"),
    ("forward.segformer_us.b1", "us"),
    ("forward.segformer_us.b8", "us"),
    ("forward.mlp_us", "us"),
    ("decode.step_us", "us"),
    ("decode.prefill_us", "us"),
    ("lut.eval_ns.gelu", "ns/elem"),
    ("lut.eval_ns.hswish", "ns/elem"),
    ("lut.eval_ns.exp", "ns/elem"),
    ("lut.eval_ns.div", "ns/elem"),
    ("lut.eval_ns.rsqrt", "ns/elem"),
    ("lut.elems.gelu", "count"),
    ("lut.elems.exp", "count"),
    ("lut.elems.div", "count"),
    ("lut.elems.rsqrt", "count"),
    ("lut.share", "ratio"),
    ("simd.matmul_gflops", "GFLOP/s"),
    ("simd.matmul_flops", "count"),
    ("simd.matmul_bytes", "count"),
    ("registry.build_ms.gelu", "ms"),
    ("registry.build_ms.hswish", "ms"),
    ("registry.build_ms.exp", "ms"),
    ("registry.build_ms.div", "ms"),
    ("registry.build_ms.rsqrt", "ms"),
    ("registry.builds", "count"),
    ("registry.hits", "count"),
    ("genetic.generation_us", "us"),
    ("genetic.fitness_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.unit_us.p50", "us"),
];

/// Collects a run's metrics and outcome, printing each as it arrives.
#[derive(Debug)]
pub struct Report {
    traced: bool,
    json: Vec<(&'static str, f64, &'static str)>,
    /// Attempts and failures of the run, across every phase.
    pub outcomes: Outcomes,
    check_failures: Vec<String>,
}

impl Report {
    /// An empty report for an untraced (`traced == false`) or traced run.
    #[must_use]
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            json: Vec::new(),
            outcomes: Outcomes::default(),
            check_failures: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Prints a `key: value` header line.
    pub fn header(&self, key: &str, value: impl std::fmt::Display) {
        println!("# {key}: {value}");
    }

    /// Records and prints one metric. Names declared for this run's mode
    /// go into the final JSON line; every other metric is printed only.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric is recorded with a different unit or
    /// twice.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, detail: &str) {
        let sep = if detail.is_empty() { "" } else { "  " };
        println!("metric {name} = {value} {unit}{sep}{detail}");
        let declared = if self.traced {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        if let Some(&(n, u)) = declared.iter().find(|(n, _)| *n == name) {
            assert_eq!(u, unit, "metric {name} declared in {u}, recorded in {unit}");
            assert!(
                self.json.iter().all(|(j, _, _)| *j != n),
                "metric {name} recorded twice"
            );
            self.json.push((n, value, u));
        }
    }

    /// Records a timing summary (ns samples) as `<name>_p50_us` and
    /// `<name>_p<tail>_us` printed metrics.
    pub fn timing(&mut self, name: &str, s: &Summary) {
        let detail = format!("n={} beyond={}", s.n, s.beyond);
        self.metric(&format!("{name}_p50_us"), s.p50 / 1e3, "us", &detail);
        let pct = format!("{}", s.tail_pct).replace('.', "_");
        self.metric(&format!("{name}_p{pct}_us"), s.tail / 1e3, "us", &detail);
    }

    /// Records a failed output check; the run then reports
    /// `"correct": false`.
    pub fn check_failed(&mut self, what: String) {
        println!("check FAILED: {what}");
        self.check_failures.push(what);
    }

    /// Prints the run's output check over `checked` outputs (`what`
    /// describes them): it passes when some were checked and none of the
    /// run's outputs mismatched.
    pub fn check_outputs(&mut self, checked: usize, what: &str) {
        if checked > 0 && self.outcomes.mismatches == 0 {
            println!("check ok: {checked} {what}");
        } else {
            let mismatches = self.outcomes.mismatches;
            self.check_failed(format!("{checked} {what}: {mismatches} differ"));
        }
    }

    /// Prints the summary and the final JSON line.
    ///
    /// # Errors
    ///
    /// Fails (printing no result) if a declared metric is missing or not
    /// a finite number.
    pub fn finish(&self) -> Result<(), String> {
        let declared = if self.traced {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let mut parts = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let (_, value, _) = self
                .json
                .iter()
                .find(|(n, _, _)| *n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            ));
        }
        let correct = self.check_failures.is_empty() && self.outcomes.attempted > 0;
        println!(
            "# outcome: correct={correct} attempted={} failed={} fail_ratio={}",
            self.outcomes.attempted,
            self.outcomes.failed(),
            self.outcomes.fail_ratio()
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.outcomes.attempted.max(1),
            self.outcomes.failed(),
            parts.join(", ")
        );
        Ok(())
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above and `BENCHMARK.json` must declare the same
    /// names with the same units, in both directions.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{name} ({unit}) not in BENCHMARK.json"
            );
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(1.203_456_789), "1.203456789");
        assert_eq!(json_number(1e-9), "0.000000001");
    }
}
