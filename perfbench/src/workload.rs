//! The benchmark's workloads and the inputs each one builds from a seed.
//!
//! Every workload follows the same chain the `naspipe` CLI follows: a
//! subnet stream sampled from the seed, a discrete-event (DES) CSP
//! schedule of it, and numeric training of it. What differs is which
//! link of the chain the untraced run times, and at what sizes.

use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::{run_pipeline_with_subnets, PipelineOutcome};
use naspipe_core::train::{sequential_training, TrainConfig, TrainResult};
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::Subnet;

/// The public call a workload's untraced run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driven {
    /// `run_pipeline_with_subnets`: the DES engine and CSP scheduler.
    Des,
    /// `replay_training` of a DES schedule built at set-up.
    Replay,
    /// `run_threaded_supervised`: the threaded runtime.
    Threaded,
}

/// One workload: its sizes and the call it times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The timed call.
    pub driven: Driven,
    /// Subnets in the stream.
    pub subnets: usize,
    /// Simulated GPUs of the DES schedule.
    pub gpus: u32,
    /// Width of every numeric layer.
    pub dim: usize,
    /// Rows per numeric batch.
    pub rows: usize,
    /// Compute-pool workers of the numeric replay.
    pub threads: usize,
    /// Stream prefix the traced run trains on the threaded runtime.
    pub runtime_subnets: usize,
}

/// Stage threads of the threaded runtime, one pool worker each. Two is
/// the most a two-CPU host runs without oversubscription.
pub const STAGES: u32 = 2;

/// Threaded-runtime checkpoint interval, in subnets.
pub const CHECKPOINT_INTERVAL: u64 = 8;

/// Seed of the numeric parameters and data. It is fixed, so the run's
/// seed varies only the subnet stream, and the converged loss moves with
/// the arithmetic rather than with a fresh dataset.
pub const TRAIN_SEED: u64 = 0;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "des-csp-deep",
        driven: Driven::Des,
        subnets: 2000,
        gpus: 16,
        dim: 16,
        rows: 8,
        threads: 1,
        runtime_subnets: 256,
    },
    Workload {
        name: "replay-wide",
        driven: Driven::Replay,
        subnets: 64,
        gpus: 4,
        dim: 128,
        rows: 64,
        threads: 2,
        runtime_subnets: 32,
    },
    Workload {
        name: "threaded-narrow",
        driven: Driven::Threaded,
        subnets: 512,
        gpus: 2,
        dim: 16,
        rows: 8,
        threads: 1,
        runtime_subnets: 512,
    },
];

impl Workload {
    /// The workload called `name`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the known names.
    pub fn by_name(name: &str) -> Result<Workload, String> {
        WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .copied()
            .ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; expected one of {names:?}")
            })
    }

    /// The same workload at a size small enough for unit tests.
    #[must_use]
    pub fn tiny(self) -> Workload {
        Workload {
            subnets: 24,
            gpus: self.gpus.min(4),
            dim: self.dim.min(16),
            rows: self.rows.min(8),
            runtime_subnets: 24,
            ..self
        }
    }

    /// Compute threads the workload runs at once, traced run included:
    /// the replay's pool, or one pool worker per runtime stage.
    pub fn compute_threads(&self) -> usize {
        self.threads.max(STAGES as usize)
    }

    /// The numeric configuration: the `naspipe train` defaults at the
    /// workload's shapes, with [`TRAIN_SEED`].
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            dim: self.dim,
            rows: self.rows,
            residual_scale: 0.15,
            seed: TRAIN_SEED,
            ..TrainConfig::default()
        }
        .with_threads(self.threads)
    }
}

/// Everything a run hands the program: built from the seed at set-up.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload these inputs are for.
    pub workload: Workload,
    /// The search space (NLP.c2).
    pub space: SearchSpace,
    /// The subnet stream, in exploration order.
    pub subnets: Vec<Subnet>,
    /// The DES configuration: NASPipe CSP on `workload.gpus` GPUs.
    pub pipeline: PipelineConfig,
    /// The numeric configuration.
    pub train: TrainConfig,
    /// The DES schedule the replay consumes (`Driven::Replay` only).
    pub schedule: Option<PipelineOutcome>,
}

/// Builds the inputs of `w` from `seed`: the space, the subnet stream,
/// the configurations and, for the replay workload, its DES schedule.
///
/// # Errors
///
/// Returns a message when the DES rejects the configuration.
pub fn setup(w: &Workload, seed: u64) -> Result<Inputs, String> {
    let space = SearchSpace::nlp_c2();
    let subnets = UniformSampler::new(&space, seed).take_subnets(w.subnets);
    let pipeline = PipelineConfig::naspipe(w.gpus, w.subnets as u64).with_seed(seed);
    let schedule = match w.driven {
        Driven::Replay => Some(
            run_pipeline_with_subnets(&space, &pipeline, subnets.clone())
                .map_err(|e| format!("DES schedule: {e}"))?,
        ),
        Driven::Des | Driven::Threaded => None,
    };
    Ok(Inputs {
        workload: *w,
        train: w.train_config(),
        space,
        subnets,
        pipeline,
        schedule,
    })
}

/// The sequential-training answer every correct run must reproduce
/// bitwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// `final_hash` of sequential training on the stream.
    pub hash: u64,
    /// Its converged loss.
    pub converged_loss: f64,
}

impl Reference {
    /// Trains `subnets` sequentially under `train`.
    pub fn compute(space: &SearchSpace, subnets: &[Subnet], train: &TrainConfig) -> Reference {
        let r = sequential_training(space, subnets, train);
        Reference {
            hash: r.final_hash,
            converged_loss: r.converged_loss(),
        }
    }

    /// Whether `result` ended at the reference parameters with the
    /// reference loss.
    pub fn matches(&self, result: &TrainResult) -> bool {
        result.final_hash == self.hash && result.converged_loss() == self.converged_loss
    }
}
