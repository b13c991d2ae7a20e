//! Live-telemetry self-test: the threaded runtime scraped over HTTP
//! mid-run, with hard verdicts on the exposition.
//!
//! The experiment runs real threaded CSP training with a
//! [`TelemetryHub`] attached and a [`MetricsServer`] bound to an
//! ephemeral port, scrapes its own `/metrics` endpoint several times
//! while the run is in flight, then once more after the workers join.
//! Three machine-independent verdicts are asserted:
//!
//! 1. **Well-formedness** — every scrape parses as Prometheus 0.0.4
//!    text and passes [`validate_exposition`] (HELP/TYPE ordering,
//!    contiguous families, cumulative histogram buckets, finite
//!    counters).
//! 2. **Monotonicity** — no counter series moves backwards between any
//!    two consecutive scrapes ([`monotonicity_violations`]).
//! 3. **Consistency** — after the run the hub's final snapshot equals
//!    the merged [`ObsReport`] field-for-field
//!    ([`diff_against_report`]), and the scraped
//!    `naspipe_tasks_total` series sum to the report's task totals —
//!    the live endpoint and the post-mortem report tell one story.

use crate::experiments::subnet_stream;
use naspipe_core::runtime::{run_threaded_telemetry, RecoveryOptions};
use naspipe_core::train::TrainConfig;
use naspipe_obs::telemetry::diff_against_report;
use naspipe_obs::{
    counter_values, http_get, monotonicity_violations, validate_exposition, MetricsServer, RunMeta,
    TelemetryHub, TelemetryOptions,
};
use naspipe_supernet::space::{SearchSpace, SpaceId};
use std::sync::Arc;
use std::time::Duration;

/// Result of the telemetry self-test.
#[derive(Debug, Clone)]
pub struct TelemetryRun {
    /// Address the metrics endpoint served on.
    pub addr: String,
    /// Scrapes collected while the run was in flight.
    pub mid_scrapes: usize,
    /// Snapshots the sampler published over the whole run.
    pub snapshots_published: u64,
    /// Ring evictions (snapshots not retained in the embedded series).
    pub samples_dropped: u64,
    /// Forward+backward tasks in the final scrape's
    /// `naspipe_tasks_total` series.
    pub scraped_tasks_total: u64,
    /// Forward+backward tasks in the merged observability report.
    pub report_tasks_total: u64,
    /// Exposition-format errors across all scrapes (verdict 1).
    pub validation_errors: Vec<String>,
    /// Counter regressions between consecutive scrapes (verdict 2).
    pub monotonicity_errors: Vec<String>,
    /// Final-snapshot vs report field mismatches (verdict 3).
    pub consistency_errors: Vec<String>,
}

impl TelemetryRun {
    /// Whether every hard verdict holds.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.validation_errors.is_empty()
            && self.monotonicity_errors.is_empty()
            && self.consistency_errors.is_empty()
            && self.scraped_tasks_total == self.report_tasks_total
    }
}

/// Sum of every `naspipe_tasks_total` series in an exposition.
fn scraped_tasks(text: &str) -> Result<u64, String> {
    Ok(counter_values(text)?
        .iter()
        .filter(|(k, _)| k.starts_with("naspipe_tasks_total"))
        .map(|(_, v)| *v as u64)
        .sum())
}

/// Runs `n` subnets of `space_id` on `gpus` threaded stages with live
/// telemetry, scraping the run's own endpoint mid-flight.
///
/// # Panics
///
/// Panics if the endpoint cannot bind, a scrape fails at the transport
/// level, or the training run itself errors — those are harness
/// failures, not verdicts.
#[must_use]
pub fn run(space_id: SpaceId, gpus: u32, n: u64) -> TelemetryRun {
    let space = SearchSpace::from_id(space_id);
    let subnets = subnet_stream(&space, n);
    let cfg = TrainConfig {
        dim: 96,
        rows: 48,
        seed: crate::SEED,
        ..TrainConfig::default()
    };

    let hub = Arc::new(TelemetryHub::new(gpus as usize, 0));
    let meta = RunMeta::new("threaded", gpus).seed(crate::SEED);
    let mut server =
        MetricsServer::bind("127.0.0.1:0", Arc::clone(&hub), meta).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let scrape = || {
        http_get(&addr, "/metrics")
            .ok()
            .filter(|r| r.status == 200)
            .map(|r| r.body)
    };
    // Sample fast (2 ms) so even a short run publishes a real series.
    let opts = TelemetryOptions::new(Arc::clone(&hub)).with_interval_us(2_000);

    let worker = {
        let space = space.clone();
        let opts = opts.clone();
        std::thread::spawn(move || {
            run_threaded_telemetry(
                &space,
                subnets,
                &cfg,
                gpus,
                0,
                &RecoveryOptions::default(),
                Some(&opts),
            )
        })
    };

    // Scrape the live endpoint until the run finishes (bounded: the run
    // is seconds long; 2000 polls x 5 ms = 10 s of slack).
    let mut scrapes: Vec<String> = Vec::new();
    for _ in 0..2000 {
        if worker.is_finished() {
            break;
        }
        if let Some(body) = scrape() {
            scrapes.push(body);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mid_scrapes = scrapes.len();
    let run = worker
        .join()
        .expect("telemetry run thread")
        .expect("telemetry training run");
    // One more scrape after the final snapshot was published.
    scrapes.push(scrape().expect("final scrape answers 200"));
    server.shutdown();

    let mut validation_errors = Vec::new();
    for (i, s) in scrapes.iter().enumerate() {
        if let Err(e) = validate_exposition(s) {
            validation_errors.push(format!("scrape {i}: {e}"));
        }
    }
    let mut monotonicity_errors = Vec::new();
    for (i, pair) in scrapes.windows(2).enumerate() {
        match monotonicity_violations(&pair[0], &pair[1]) {
            Ok(v) => monotonicity_errors
                .extend(v.into_iter().map(|e| format!("scrape {i}->{}: {e}", i + 1))),
            Err(e) => monotonicity_errors.push(format!("scrape {i}->{}: {e}", i + 1)),
        }
    }

    let final_snap = hub.latest().expect("final snapshot published");
    let consistency_errors = diff_against_report(&final_snap, &run.report);
    let scraped_tasks_total =
        scraped_tasks(scrapes.last().expect("at least the final scrape")).unwrap_or(0);
    let report_tasks_total = run
        .report
        .stages
        .iter()
        .map(|s| s.forward_tasks + s.backward_tasks)
        .sum();

    TelemetryRun {
        addr,
        mid_scrapes,
        snapshots_published: hub.published(),
        samples_dropped: hub.samples_dropped(),
        scraped_tasks_total,
        report_tasks_total,
        validation_errors,
        monotonicity_errors,
        consistency_errors,
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

/// Renders the verdict table (and any errors, on failure).
#[must_use]
pub fn render(r: &TelemetryRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} mid-run scrape(s) on {}; {} snapshot(s) published, {} dropped",
        r.mid_scrapes, r.addr, r.snapshots_published, r.samples_dropped
    );
    let _ = writeln!(
        out,
        "exposition well-formed (all scrapes):        {}",
        verdict(r.validation_errors.is_empty())
    );
    let _ = writeln!(
        out,
        "counters monotone across scrapes:            {}",
        verdict(r.monotonicity_errors.is_empty())
    );
    let _ = writeln!(
        out,
        "final snapshot == observability report:      {}",
        verdict(r.consistency_errors.is_empty())
    );
    let _ = writeln!(
        out,
        "scraped tasks_total == report task count:    {} ({} vs {})",
        verdict(r.scraped_tasks_total == r.report_tasks_total),
        r.scraped_tasks_total,
        r.report_tasks_total
    );
    for e in r
        .validation_errors
        .iter()
        .chain(&r.monotonicity_errors)
        .chain(&r.consistency_errors)
    {
        let _ = writeln!(out, "  error: {e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_self_test_passes_end_to_end() {
        // Small but real: threaded training + live HTTP scrapes.
        let r = run(SpaceId::NlpC2, 2, 8);
        assert!(r.all_ok(), "verdicts failed:\n{}", render(&r));
        assert!(r.snapshots_published >= 1);
        assert_eq!(r.report_tasks_total, 8 * 2 * 2);
    }

    #[test]
    fn scraped_tasks_sums_only_task_series() {
        let text = "# HELP naspipe_tasks_total t\n\
                    # TYPE naspipe_tasks_total counter\n\
                    naspipe_tasks_total{kind=\"forward\",stage=\"0\"} 3\n\
                    naspipe_tasks_total{kind=\"backward\",stage=\"0\"} 2\n\
                    # HELP naspipe_pool_jobs_total p\n\
                    # TYPE naspipe_pool_jobs_total counter\n\
                    naspipe_pool_jobs_total 99\n";
        assert_eq!(scraped_tasks(text).unwrap(), 5);
    }
}
