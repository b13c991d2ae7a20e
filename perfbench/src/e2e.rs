//! The untraced run: times the workload's one public call, repeated for
//! the run's seconds, and checks every output it produces.

use crate::host;
use crate::measure::{median, timed, Metric, RunResult};
use crate::workload::{setup, Driven, Inputs, Reference, Workload, CHECKPOINT_INTERVAL, STAGES};
use naspipe_core::pipeline::{run_pipeline_with_subnets, PipelineError, PipelineOutcome};
use naspipe_core::repro::{verify_csp_order, verify_csp_order_parts};
use naspipe_core::runtime::{run_threaded_supervised, RecoveryOptions, SupervisedRun, TrainError};
use naspipe_core::train::{replay_training, TrainResult};
use naspipe_supernet::subnet::Subnet;

/// Fewest timed calls a run makes, however short its seconds.
pub const MIN_REPS: usize = 3;

/// Untimed calls run first for this share of the timed seconds, so that
/// caches, allocator pools and the host's scheduling settle.
pub const WARMUP_SHARE: f64 = 0.3;

/// Set-up is timed [`FIRST_SETUPS`] times before the reference, then
/// again after every warm-up and timed call (outside its timed window)
/// for up to [`SETUP_SLICE_SECONDS`] or [`SETUP_SLICE_MAX`] set-ups.
/// Spreading the samples over the run makes their median see the same
/// mix of host conditions as the timed calls; `setup_s` is that median.
const FIRST_SETUPS: usize = 5;
const SETUP_SLICE_SECONDS: f64 = 0.05;
const SETUP_SLICE_MAX: usize = 50;

/// What the timed calls of one run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed {
    /// Subnets per wall second, one sample per call.
    pub rates: Vec<f64>,
    /// Subnets the calls were asked to handle.
    pub attempted: u64,
    /// Subnets of calls whose output check failed.
    pub failed: u64,
    /// Simulated throughput of the workload's DES schedule.
    pub sim_samples_per_s: f64,
    /// Converged loss of the workload's numeric training.
    pub converged_loss: f64,
    /// Peak resident memory in MiB after the first call: set-up, the
    /// reference and one call. Later calls repeat the same work, so they
    /// add only allocator noise.
    pub peak_rss_mib: Result<f64, String>,
}

/// Runs `w` untraced: set-up, the sequential reference (outside every
/// timed window), the timed calls, and the end-to-end metrics.
///
/// # Errors
///
/// Returns a message when set-up fails or memory cannot be read.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut samples = Vec::new();
    let inputs = sample_setup(w, seed, &mut samples, f64::INFINITY, FIRST_SETUPS)?;
    let reference = Reference::compute(&inputs.space, &inputs.subnets, &inputs.train);
    let mut setup_error = None;
    let t = drive(&inputs, &reference, seconds, &mut || {
        if let Err(e) = sample_setup(w, seed, &mut samples, SETUP_SLICE_SECONDS, SETUP_SLICE_MAX) {
            setup_error.get_or_insert(e);
        }
    });
    if let Some(e) = setup_error {
        return Err(e);
    }
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(RunResult {
        attempted: t.attempted,
        failed: t.failed,
        metrics: vec![
            metric("setup_s", median(&samples), "s"),
            metric("subnets_per_s", median(&t.rates), "subnets/s"),
            metric("sim_samples_per_s", t.sim_samples_per_s, "samples/s"),
            metric("converged_loss", t.converged_loss, "loss"),
            metric("peak_rss_mb", t.peak_rss_mib?, "MiB"),
        ],
    })
}

/// Times `setup(w, seed)` until `budget` seconds or `max` set-ups have
/// been spent (at least once), appending each time to `samples`, and
/// returns the last inputs built.
///
/// # Errors
///
/// Returns the set-up error.
pub fn sample_setup(
    w: &Workload,
    seed: u64,
    samples: &mut Vec<f64>,
    budget: f64,
    max: usize,
) -> Result<Inputs, String> {
    let mut spent = 0.0;
    let mut count = 0;
    loop {
        let (inputs, secs) = timed(|| setup(w, seed));
        let inputs = inputs?;
        samples.push(secs);
        spent += secs;
        count += 1;
        if count >= max || spent >= budget {
            return Ok(inputs);
        }
    }
}

/// The output of one call of a workload's public entry point.
enum Output {
    Des(Result<PipelineOutcome, PipelineError>),
    Replay(TrainResult),
    Threaded(Result<SupervisedRun, TrainError>),
}

/// Calls the workload's public entry point once on `stream`.
fn call(inputs: &Inputs, stream: Vec<Subnet>) -> Output {
    let w = &inputs.workload;
    match w.driven {
        Driven::Des => Output::Des(run_pipeline_with_subnets(
            &inputs.space,
            &inputs.pipeline,
            stream,
        )),
        Driven::Replay => {
            let schedule = inputs
                .schedule
                .as_ref()
                .expect("replay inputs hold a schedule");
            Output::Replay(replay_training(&inputs.space, schedule, &inputs.train))
        }
        Driven::Threaded => {
            let opts = RecoveryOptions {
                checkpoint_interval: CHECKPOINT_INTERVAL,
                ..RecoveryOptions::default()
            };
            Output::Threaded(run_threaded_supervised(
                &inputs.space,
                stream,
                &inputs.train,
                STAGES,
                0,
                &opts,
            ))
        }
    }
}

/// Calls the workload's public entry point, untimed at least once and
/// for [`WARMUP_SHARE`] of `seconds`, and then timed until `seconds` have
/// passed (at least [`MIN_REPS`] times), and checks each timed call's
/// output against `reference`. A failed check counts all of that call's
/// subnets as failed; a failed check of the run's shared output counts
/// all of them. `between` runs after every call, outside its timer.
pub fn drive(
    inputs: &Inputs,
    reference: &Reference,
    seconds: f64,
    between: &mut dyn FnMut(),
) -> Timed {
    let n = inputs.subnets.len() as u64;
    let stream = inputs.subnets.clone();
    let mut warm = timed(|| call(inputs, stream)).1;
    let peak_rss_mib = host::peak_rss_mib();
    between();
    while warm < WARMUP_SHARE * seconds {
        let stream = inputs.subnets.clone();
        warm += timed(|| call(inputs, stream)).1;
        between();
    }
    let mut rates = Vec::new();
    let mut failed = 0;
    let mut spent = 0.0;
    let mut first: Option<PipelineOutcome> = None;
    let mut converged_loss = f64::NAN;
    while rates.len() < MIN_REPS || spent < seconds {
        let stream = inputs.subnets.clone();
        let (out, secs) = timed(|| call(inputs, stream));
        between();
        spent += secs;
        rates.push(n as f64 / secs);
        let ok = match out {
            Output::Des(Err(_)) | Output::Threaded(Err(_)) => false,
            // Every call must reproduce the first schedule exactly; the
            // first one is checked in full.
            Output::Des(Ok(o)) => match &first {
                Some(f) => o.tasks == f.tasks && o.report == f.report,
                None => {
                    let good = o.report.subnets_completed == n && verify_csp_order(&o).is_ok();
                    first = Some(o);
                    good
                }
            },
            Output::Replay(r) => {
                converged_loss = r.converged_loss();
                reference.matches(&r)
            }
            Output::Threaded(Ok(run)) => {
                converged_loss = run.result.converged_loss();
                reference.matches(&run.result)
                    && verify_csp_order_parts(&run.subnets, &run.tasks).is_ok()
            }
        };
        if !ok {
            failed += n;
        }
    }
    let attempted = n * rates.len() as u64;

    // The outputs every call shares: the DES schedule's throughput and,
    // for the DES workload, the numeric training of its schedule.
    let shared = match inputs.workload.driven {
        Driven::Des => first.map(|f| {
            let r = replay_training(&inputs.space, &f, &inputs.train);
            converged_loss = r.converged_loss();
            (f.report.throughput_samples_per_sec(), reference.matches(&r))
        }),
        Driven::Replay => inputs
            .schedule
            .as_ref()
            .map(|s| (s.report.throughput_samples_per_sec(), true)),
        Driven::Threaded => {
            run_pipeline_with_subnets(&inputs.space, &inputs.pipeline, inputs.subnets.clone())
                .ok()
                .map(|o| {
                    let good = o.report.subnets_completed == n && verify_csp_order(&o).is_ok();
                    (o.report.throughput_samples_per_sec(), good)
                })
        }
    };
    let (sim_samples_per_s, shared_ok) = shared.unwrap_or((f64::NAN, false));
    Timed {
        rates,
        attempted,
        failed: if shared_ok { failed } else { attempted },
        sim_samples_per_s,
        converged_loss,
        peak_rss_mib,
    }
}
