//! Result assembly: every metric is printed once as a readable line
//! with its unit, and the last line of standard output is the JSON
//! result object.

use std::fmt::Write as _;

/// Failures described one by one; later ones are only counted.
pub const FAILURE_NOTES: u64 = 20;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    /// Every checked output was correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (refused, expired, panicked or wrong).
    pub failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// An empty, so far correct report.
    #[must_use]
    pub fn new() -> Self {
        Self { correct: true, ..Self::default() }
    }

    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value or a name given twice: both are
    /// defects of the benchmark, not of the program under test.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.metrics.iter().all(|m| m.name != name), "metric {name} reported twice");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a readable line printed before the metrics (sample counts,
    /// percentile levels, failures).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Notes the host probe's median and the factor the run's timings
    /// were scaled by.
    pub fn host_note(&mut self, probe: &crate::host::HostProbe) {
        self.note(format!(
            "host probe p50 {:.4} ms over {} samples; timings scaled by {:.4} to a {:.1} ms probe",
            probe.median_s() * 1e3,
            probe.samples(),
            probe.scale(),
            crate::host::NOMINAL_PROBE_S * 1e3
        ));
    }

    /// Records a failed operation; `wrong` marks a wrong output. Only
    /// the first [`FAILURE_NOTES`] failures are described.
    pub fn fail(&mut self, wrong: bool, why: impl Into<String>) {
        self.failed += 1;
        if wrong {
            self.correct = false;
        }
        if self.failed <= FAILURE_NOTES {
            self.note(format!("FAILED: {}", why.into()));
        }
    }

    /// The final JSON result line.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(out, r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#, m.name, m.value, m.unit);
        }
        out.push_str("}}");
        out
    }

    /// Prints notes, one `metric` line per metric, then the JSON line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for m in &self.metrics {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let mut r = Report::new();
        r.attempted = 3;
        r.metric("a_ms", 1.25, "ms");
        r.metric("b", 2.0, "count");
        assert_eq!(
            r.json(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a_ms": {"value": 1.25, "unit": "ms"}, "b": {"value": 2, "unit": "count"}}}"#
        );
        r.fail(true, "mismatch");
        assert!(!r.correct);
        assert_eq!(r.failed, 1);
    }
}
