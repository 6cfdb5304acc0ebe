//! The result of one run and how it is printed: a human-readable table
//! of every metric with its unit and sample count, then one JSON line.

use std::fmt::Write as _;

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (0 for derived numbers and counts).
    pub samples: usize,
}

/// Build a metric.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failure reasons.
    pub errors: Vec<String>,
    /// The gated end-to-end metrics (the JSON line with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// The workload's own metrics under the names users know them by
    /// (printed in the table, not gated).
    pub detail: Vec<Metric>,
    /// Per-layer metrics (the JSON line with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Host and run facts.
    pub facts: Vec<(String, String)>,
    /// The spans of a traced run.
    pub spans: Option<crate::spans::Spans>,
}

impl RunReport {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines (everything but the final JSON line).
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# workload {}", self.workload);
        for (k, v) in &self.facts {
            let _ = writeln!(out, "# fact {k} = {v}");
        }
        let sections = [
            ("end-to-end", &self.end_to_end),
            ("workload", &self.detail),
            ("per-layer", &self.per_layer),
        ];
        for (title, metrics) in sections {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(out, "# {title}");
            for m in metrics {
                let _ = writeln!(
                    out,
                    "#   {:<34} {:>18.6} {:<8} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "# failed_ratio = {ratio} ({} of {} operations)",
            self.failed, self.attempted
        );
        for e in self.errors.iter().take(10) {
            let _ = writeln!(out, "# failure: {e}");
        }
        out
    }

    /// The final JSON line: the per-layer metrics when `traced`, the
    /// end-to-end ones otherwise.
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// A JSON number with every digit Rust prints; non-finite values become
/// `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}
