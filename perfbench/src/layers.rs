//! The traced run: times the public calls into each layer on the
//! workload's inputs and reads the counters those calls return.
//!
//! Three groups, each on the workload's own configuration:
//!
//! * DES — `core::pipeline`/`scheduler`/`predictor`/`context` and the
//!   `obs` span tracer, by differencing runs of the same stream that
//!   switch one piece off;
//! * numerics — `tensor` and `core::train`, by driving the public calls
//!   `replay_training` makes, in task order, each under a timer; the
//!   untimed rest of the untraced replay is reported as a residual;
//! * threaded runtime — `core::runtime`, `core::checkpoint` and `obs`
//!   diagnostics against the `sequential_training` baseline.

use crate::measure::{median, timed, Metric, RunResult, Spans};
use crate::workload::{setup, Inputs, Reference, Workload, CHECKPOINT_INTERVAL, STAGES};
use naspipe_core::config::{DiagnosticsOptions, PipelineConfig, SyncPolicy};
use naspipe_core::pipeline::{
    run_pipeline_with_subnets, run_pipeline_with_tracer, PipelineOutcome,
};
use naspipe_core::repro::verify_csp_order;
use naspipe_core::runtime::{run_threaded_diagnosed, run_threaded_supervised, RecoveryOptions};
use naspipe_core::task::TaskKind;
use naspipe_core::train::{replay_training, sequential_training, TrainConfig};
use naspipe_obs::NullTracer;
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::Subnet;
use naspipe_tensor::data::SyntheticDataset;
use naspipe_tensor::model::{ForwardCtx, ParamStore};
use naspipe_tensor::pool;
use naspipe_tensor::tensor::{MmOp, Tensor};
use std::collections::BTreeMap;

/// Rounds of every differenced call; each metric uses their median.
const ROUNDS: usize = 3;

/// Seconds each kernel shape is timed for.
const KERNEL_SECONDS: f64 = 0.05;

/// Seconds of untimed threaded runs before the timed ones.
const WARMUP_SECONDS: f64 = 1.5;

/// Subnets handed to checked calls, and those whose check failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, subnets: usize, ok: bool) {
        self.attempted += subnets as u64;
        if !ok {
            self.failed += subnets as u64;
        }
    }
}

/// Runs `w` traced and returns every per-layer metric.
///
/// # Errors
///
/// Returns a message when set-up fails, or when the DES rejects the
/// workload's configuration.
pub fn run(w: &Workload, seed: u64) -> Result<RunResult, String> {
    let inputs = setup(w, seed)?;
    let reference = Reference::compute(&inputs.space, &inputs.subnets, &inputs.train);
    let mut tally = Tally::default();
    let (mut metrics, schedule) = des_layers(&inputs, &mut tally)?;
    let (numeric, spans) = numeric_layers(&inputs, &schedule, &reference, &mut tally);
    metrics.extend(numeric);
    metrics.extend(runtime_layers(&inputs, &mut tally));
    for (name, secs, calls) in spans.entries() {
        eprintln!("span {name:<24} {secs:>10.6} s {calls:>8} calls");
    }
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// DES layers: the workload's CSP schedule with the span tracer (the
/// default path), with a `NullTracer`, with diagnostics off too, the
/// same bare run under BSP, and the bare run on a quarter of the stream.
/// Returns the metrics and the traced run's schedule.
fn des_layers(
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, PipelineOutcome), String> {
    let Inputs {
        space,
        subnets,
        pipeline,
        ..
    } = inputs;
    let n = subnets.len();
    let quarter = (n / 4).max(1);
    let bare = pipeline
        .clone()
        .with_diagnostics(DiagnosticsOptions::disabled());
    // VPipe's BSP also swaps parameters, so the difference is CSP's
    // admission and prediction, not the parameter cache.
    let bsp = bare.clone().with_policy(SyncPolicy::Bsp {
        bulk: 0,
        swap: true,
    });
    let head = PipelineConfig {
        num_subnets: quarter as u64,
        ..bare.clone()
    };
    let des = |cfg: &PipelineConfig, stream: &[Subnet], null: bool| {
        let stream = stream.to_vec();
        let (out, secs) = timed(|| {
            if null {
                run_pipeline_with_tracer(space, cfg, stream, Box::new(NullTracer))
            } else {
                run_pipeline_with_subnets(space, cfg, stream)
            }
        });
        out.map(|o| (o, secs)).map_err(|e| format!("DES run: {e}"))
    };

    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut traced: Option<PipelineOutcome> = None;
    for _ in 0..ROUNDS {
        let (out, secs) = des(pipeline, subnets, false)?;
        times.entry("span").or_default().push(secs);
        let ok = match &traced {
            Some(t) => out.tasks == t.tasks && out.report == t.report,
            None => out.report.subnets_completed == n as u64 && verify_csp_order(&out).is_ok(),
        };
        tally.record(n, ok);
        let reference = traced.get_or_insert(out);
        // Neither the tracer nor diagnostics may change the schedule.
        for (name, cfg) in [("null", pipeline), ("bare", &bare)] {
            let (out, secs) = des(cfg, subnets, true)?;
            times.entry(name).or_default().push(secs);
            tally.record(n, out.tasks == reference.tasks);
        }
        let (out, secs) = des(&bsp, subnets, true)?;
        times.entry("bsp").or_default().push(secs);
        tally.record(n, out.report.subnets_completed == n as u64);
        let (out, secs) = des(&head, &subnets[..quarter], true)?;
        times.entry("head").or_default().push(secs);
        tally.record(quarter, out.report.subnets_completed == quarter as u64);
    }
    eprintln!("des rounds (s): {times:.4?}");
    let t = |name: &str| median(&times[name]);
    let out = traced.expect("at least one round ran");
    let r = &out.report;
    let stats = r.scheduler_stats;
    let metrics = vec![
        metric(
            "core.pipeline.tasks_per_s",
            out.tasks.len() as f64 / t("span"),
            "tasks/s",
        ),
        metric("obs.tracer_s", t("span") - t("null"), "s"),
        metric("obs.des_diagnostics_s", t("null") - t("bare"), "s"),
        metric("core.scheduler.csp_s", t("bare") - t("bsp"), "s"),
        metric("core.scheduler.calls", stats.calls as f64, "count"),
        metric("core.scheduler.scanned", stats.scanned as f64, "count"),
        metric(
            "core.scheduler.hit_ratio",
            stats.hits as f64 / stats.calls.max(1) as f64,
            "ratio",
        ),
        metric(
            "core.pipeline.growth",
            (t("bare") / n as f64) / (t("head") / quarter as f64),
            "ratio",
        ),
        metric("core.pipeline.bubble_ratio", r.bubble_ratio, "ratio"),
        metric(
            "core.pipeline.stall_blocked_s",
            r.stage_idle_blocked_secs.iter().sum(),
            "sim_s",
        ),
        metric(
            "core.pipeline.idle_empty_s",
            r.stage_idle_empty_secs.iter().sum(),
            "sim_s",
        ),
        metric("core.context.hit_rate", r.cache_stats.hit_rate(), "ratio"),
        metric(
            "core.context.prefetches",
            r.cache_stats.prefetches as f64,
            "count",
        ),
        metric(
            "core.context.bytes_fetched",
            r.cache_stats.bytes_fetched as f64,
            "bytes",
        ),
    ];
    Ok((metrics, out))
}

/// What one pass of [`drive_replay_calls`] did.
#[derive(Debug, Clone)]
pub struct DrivenReplay {
    /// Seconds per public call, by metric name.
    pub spans: Spans,
    /// `bitwise_hash` of the final parameters.
    pub final_hash: u64,
    /// Layers run forward (one `Nn` matmul each).
    pub forward_layers: u64,
    /// Layers run backward (one `Tn` + `Nt` matmul batch each).
    pub backward_layers: u64,
    /// `step_batch` calls (one `Nn` matmul each).
    pub batches: u64,
    /// Wall seconds of the whole pass.
    pub wall: f64,
}

/// Makes the public calls `replay_training` makes on `outcome`, in task
/// order, timing each one.
///
/// # Panics
///
/// Panics when the schedule is inconsistent, as `replay_training` does.
pub fn drive_replay_calls(
    space: &SearchSpace,
    outcome: &PipelineOutcome,
    cfg: &TrainConfig,
) -> DrivenReplay {
    pool::with_threads(cfg.threads, || {
        let (mut driven, wall) = timed(|| {
            let mut spans = Spans::default();
            let mut store = spans.time("tensor.model.init_s", || {
                ParamStore::init(space, cfg.dim, cfg.seed)
            });
            let mut engine = cfg.engine();
            let data = SyntheticDataset::new(cfg.seed, cfg.rows, cfg.dim);
            let arch: BTreeMap<u64, _> =
                outcome.subnets.iter().map(|s| (s.seq_id().0, s)).collect();
            let last_stage = outcome.tasks.iter().map(|t| t.stage.0).max().unwrap_or(0);
            let mut acts: BTreeMap<(u64, u32), Tensor> = BTreeMap::new();
            let mut grads: BTreeMap<(u64, u32), Tensor> = BTreeMap::new();
            let mut ctxs: BTreeMap<(u64, u32), ForwardCtx> = BTreeMap::new();
            let (mut forward_layers, mut backward_layers, mut batches) = (0, 0, 0);
            for task in &outcome.tasks {
                let (y, k) = (task.subnet.0, task.stage.0);
                match task.kind {
                    TaskKind::Forward => {
                        let input = if k == 0 {
                            batches += 1;
                            spans.time("tensor.data.batch_s", || data.step_batch(y)).0
                        } else {
                            acts.remove(&(y, k - 1))
                                .expect("boundary activation present")
                        };
                        let ctx = spans.time("tensor.model.forward_s", || {
                            engine.forward_slice(&store, arch[&y], task.blocks.clone(), &input)
                        });
                        forward_layers += ctx.layers().len() as u64;
                        acts.insert((y, k), ctx.output().clone());
                        ctxs.insert((y, k), ctx);
                    }
                    TaskKind::Backward => {
                        let grad_out = if k == last_stage {
                            let output = acts.remove(&(y, k)).expect("last-stage output present");
                            batches += 1;
                            let target = spans.time("tensor.data.batch_s", || data.step_batch(y)).1;
                            spans
                                .time("tensor.loss.mse_s", || {
                                    naspipe_tensor::loss::mse(&output, &target)
                                })
                                .1
                        } else {
                            acts.remove(&(y, k));
                            grads
                                .remove(&(y, k + 1))
                                .expect("gradient from later stage")
                        };
                        let ctx = ctxs.remove(&(y, k)).expect("forward context present");
                        backward_layers += ctx.layers().len() as u64;
                        let (grad_in, layer_grads) = spans.time("tensor.model.backward_s", || {
                            engine.backward_slice(&store, &ctx, &grad_out)
                        });
                        spans.time("tensor.optim.apply_s", || {
                            engine.apply(&mut store, &layer_grads);
                        });
                        grads.insert((y, k), grad_in);
                    }
                }
            }
            let final_hash = spans.time("tensor.model.hash_s", || store.bitwise_hash());
            DrivenReplay {
                spans,
                final_hash,
                forward_layers,
                backward_layers,
                batches,
                wall: 0.0,
            }
        });
        driven.wall = wall;
        driven
    })
}

/// The timed public calls, in the order `replay_training` first makes
/// them.
pub const REPLAY_CALLS: [&str; 7] = [
    "tensor.model.init_s",
    "tensor.data.batch_s",
    "tensor.model.forward_s",
    "tensor.loss.mse_s",
    "tensor.model.backward_s",
    "tensor.optim.apply_s",
    "tensor.model.hash_s",
];

/// Numeric layers on the workload's DES schedule at its numeric shapes.
/// Returns the metrics and the spans of the last driven pass.
fn numeric_layers(
    inputs: &Inputs,
    schedule: &PipelineOutcome,
    reference: &Reference,
    tally: &mut Tally,
) -> (Vec<Metric>, Spans) {
    let space = &inputs.space;
    let cfg = &inputs.train;
    let n = schedule.subnets.len();
    let shared = pool::shared(cfg.threads);
    let mut replay_walls = Vec::new();
    let mut pool_delta = None;
    let mut driven_passes = Vec::new();
    for round in 0..ROUNDS {
        // Alternate which of the pair runs first, so that warming up
        // favours neither.
        let drive = || drive_replay_calls(space, schedule, cfg);
        let driven_first = round % 2 == 1;
        let early = driven_first.then(drive);
        let before = shared.stats();
        let (r, wall) = timed(|| replay_training(space, schedule, cfg));
        pool_delta.get_or_insert_with(|| shared.stats().since(&before));
        replay_walls.push(wall);
        tally.record(n, reference.matches(&r));
        // The guard: the driven calls must do the same work as the
        // untraced call, so they must end at the same parameters.
        let driven = early.unwrap_or_else(drive);
        tally.record(n, driven.final_hash == r.final_hash);
        driven_passes.push(driven);
    }
    let driven_wall: Vec<f64> = driven_passes.iter().map(|d| d.wall).collect();
    eprintln!("numeric rounds (s): replay {replay_walls:.4?} driven {driven_wall:.4?}");
    let replay_s = median(&replay_walls);
    let mut metrics = Vec::new();
    let mut children = 0.0;
    for name in REPLAY_CALLS {
        let secs: Vec<f64> = driven_passes.iter().map(|d| d.spans.secs(name)).collect();
        children += median(&secs);
        metrics.push(metric(name, median(&secs), "s"));
    }
    metrics.push(metric("core.train.replay_s", replay_s, "s"));
    metrics.push(metric("core.train.residual_s", replay_s - children, "s"));
    metrics.push(metric(
        "bench.trace_overhead_s",
        median(&driven_wall) - replay_s,
        "s",
    ));

    let last = driven_passes.pop().expect("at least one round ran");
    let k = kernel_secs(cfg);
    let flop = 2.0 * (cfg.rows * cfg.dim * cfg.dim) as f64;
    let kernel_time =
        (last.forward_layers + last.batches) as f64 * k.nn + last.backward_layers as f64 * k.pair;
    metrics.extend([
        metric("tensor.kernel.nn_gflops", flop / k.nn / 1e9, "GFLOP/s"),
        metric("tensor.kernel.tn_gflops", flop / k.tn / 1e9, "GFLOP/s"),
        metric("tensor.kernel.nt_gflops", flop / k.nt / 1e9, "GFLOP/s"),
        metric("tensor.kernel.share", kernel_time / replay_s, "ratio"),
    ]);

    let delta = pool_delta.expect("at least one round ran");
    let helpers = delta.workers.iter().skip(1);
    let helper_busy_us: u64 = helpers.clone().map(|w| w.1).sum();
    let helper_capacity_us = helpers.count() as f64 * replay_walls[0] * 1e6;
    metrics.push(metric("tensor.pool.jobs", delta.jobs as f64, "count"));
    metrics.push(metric(
        "tensor.pool.helper_busy_share",
        if helper_capacity_us > 0.0 {
            helper_busy_us as f64 / helper_capacity_us
        } else {
            0.0
        },
        "ratio",
    ));
    (metrics, last.spans)
}

/// Seconds per call of the kernels a dense layer makes at the
/// workload's shapes.
struct KernelSecs {
    /// Forward `x · W`.
    nn: f64,
    /// Weight gradient `xᵀ · dz`.
    tn: f64,
    /// Input gradient `dz · Wᵀ`.
    nt: f64,
    /// Both gradients in one `matmul_batch`, as `dense_backward` issues them.
    pair: f64,
}

fn kernel_secs(cfg: &TrainConfig) -> KernelSecs {
    let filled = |rows: usize, cols: usize, phase: f32| {
        let data = (0..rows * cols)
            .map(|i| ((i as f32) * 0.37 + phase).sin())
            .collect();
        Tensor::from_vec(data, &[rows, cols])
    };
    let x = filled(cfg.rows, cfg.dim, 0.1);
    let dz = filled(cfg.rows, cfg.dim, 0.2);
    let w = filled(cfg.dim, cfg.dim, 0.3);
    let per_call = |f: &dyn Fn() -> Vec<Tensor>| {
        std::hint::black_box(f());
        let mut calls = 0u32;
        let (_, secs) = timed(|| {
            let start = std::time::Instant::now();
            while calls < 10 || start.elapsed().as_secs_f64() < KERNEL_SECONDS {
                std::hint::black_box(f());
                calls += 1;
            }
        });
        secs / f64::from(calls)
    };
    pool::with_threads(cfg.threads, || KernelSecs {
        nn: per_call(&|| vec![x.matmul(&w)]),
        tn: per_call(&|| Tensor::matmul_batch(&[(MmOp::Tn, &x, &dz)])),
        nt: per_call(&|| Tensor::matmul_batch(&[(MmOp::Nt, &dz, &w)])),
        pair: per_call(&|| Tensor::matmul_batch(&[(MmOp::Tn, &x, &dz), (MmOp::Nt, &dz, &w)])),
    })
}

/// Threaded-runtime layers on a prefix of the stream, one pool worker
/// per stage: checkpoints every [`CHECKPOINT_INTERVAL`] subnets (the supervised
/// default path), no checkpoints, diagnostics off, and the sequential
/// baseline.
fn runtime_layers(inputs: &Inputs, tally: &mut Tally) -> Vec<Metric> {
    let w = &inputs.workload;
    let space = &inputs.space;
    let subnets = &inputs.subnets[..w.runtime_subnets.min(inputs.subnets.len())];
    let n = subnets.len();
    let cfg = inputs.train.with_threads(1);
    let checkpointed = RecoveryOptions {
        checkpoint_interval: CHECKPOINT_INTERVAL,
        ..RecoveryOptions::default()
    };
    let plain = RecoveryOptions::default();
    let disabled = DiagnosticsOptions::disabled();

    let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut reference = None;
    for _ in 0..ROUNDS {
        let (seq, secs) = timed(|| sequential_training(space, subnets, &cfg));
        times.entry("seq").or_default().push(secs);
        reference = Some(seq.final_hash);
    }
    let runs = [
        ("ckpt", &checkpointed, None),
        ("plain", &plain, None),
        ("bare", &checkpointed, Some(&disabled)),
    ];
    let threaded = |opts, diag: Option<&DiagnosticsOptions>| {
        let stream = subnets.to_vec();
        timed(|| match diag {
            None => run_threaded_supervised(space, stream, &cfg, STAGES, 0, opts),
            Some(d) => run_threaded_diagnosed(space, stream, &cfg, STAGES, 0, opts, None, None, d),
        })
    };
    // The stage threads hand work to each other many times per subnet,
    // so wake-up latency matters: warm up as the untraced run does.
    let mut warm = 0.0;
    while warm < WARMUP_SECONDS {
        warm += threaded(&checkpointed, None).1;
    }
    let mut last_report = None;
    for _ in 0..ROUNDS {
        for (name, opts, diag) in runs {
            let (run, secs) = threaded(opts, diag);
            times.entry(name).or_default().push(secs);
            match run {
                Ok(run) => {
                    tally.record(n, Some(run.result.final_hash) == reference);
                    if name == "ckpt" {
                        last_report = Some(run.report);
                    }
                }
                Err(e) => {
                    eprintln!("threaded run {name} failed: {e}");
                    tally.record(n, false);
                }
            }
        }
    }
    eprintln!("runtime rounds (s): {times:.4?}");
    let t = |name: &str| median(&times[name]);
    let stages = f64::from(STAGES);
    let report = last_report.unwrap_or_default();
    let capacity_us = (stages * report.wall_us as f64).max(1.0);
    let stall_us: u64 = report.stages.iter().map(|s| s.stall_us).sum();
    let bubble_us: u64 = report.stages.iter().map(|s| s.bubble_us).sum();
    let preemptions: u64 = report.stages.iter().map(|s| s.backward_preemptions).sum();
    vec![
        metric("core.train.sequential_s", t("seq"), "s"),
        metric("core.runtime.wall_s", t("ckpt"), "s"),
        metric(
            "core.runtime.parallel_efficiency",
            t("seq") / (stages * t("ckpt")),
            "ratio",
        ),
        metric(
            "core.runtime.stall_share",
            stall_us as f64 / capacity_us,
            "ratio",
        ),
        metric(
            "core.runtime.bubble_share",
            bubble_us as f64 / capacity_us,
            "ratio",
        ),
        metric("core.runtime.preemptions", preemptions as f64, "count"),
        metric("core.checkpoint.cost_s", t("ckpt") - t("plain"), "s"),
        metric("obs.runtime_diagnostics_s", t("ckpt") - t("bare"), "s"),
    ]
}
