//! Timing helpers, the benchmark's in-memory spans, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-name totals of timed calls: the spans the traced run records
/// around each public call into a layer. Kept in memory and read out
/// when the run ends.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    totals: BTreeMap<&'static str, (f64, u64)>,
}

impl Spans {
    /// Times `f` under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (out, secs) = timed(f);
        let entry = self.totals.entry(name).or_default();
        entry.0 += secs;
        entry.1 += 1;
        out
    }

    /// Seconds spent under `name` (0 when never timed).
    pub fn secs(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.0)
    }

    /// Seconds spent under every name.
    pub fn total_secs(&self) -> f64 {
        self.totals.values().map(|t| t.0).sum()
    }

    /// `(name, seconds, calls)` for every name, sorted by name.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64, u64)> + '_ {
        self.totals.iter().map(|(&n, &(s, c))| (n, s, c))
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Subnets the measured calls were asked to train or schedule.
    pub attempted: u64,
    /// Subnets of calls whose output check failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The single-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; `correct()` already
                // fails such a run, so any number keeps the line valid.
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let r = RunResult {
            attempted: 4,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
