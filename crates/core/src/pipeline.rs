//! The discrete-event pipeline engine.
//!
//! Runs a supernet training workload — an ordered stream of subnets, each
//! split into `D` stages — over the simulated GPU cluster, under one of
//! the three synchronisation policies of Figure 1:
//!
//! * **CSP** (NASPipe): per-stage queues, backward-first priority, and the
//!   CSP scheduler's out-of-order admission; the predictor prefetches
//!   parameter contexts and the context manager swaps them CPU<->GPU.
//! * **BSP** (GPipe, VPipe): subnets run in bulks with a flush barrier
//!   between bulks, FIFO within a bulk.
//! * **ASP** (PipeDream): continuous 1F1B injection, no flush, no
//!   dependency enforcement.
//!
//! Everything the paper measures — throughput, bubble ratio, ALU
//! utilisation, cache hits, per-layer access order — is derived from the
//! resulting event history. The engine is fully deterministic: a run is a
//! pure function of `(space, config)`.

use crate::config::{PipelineConfig, SyncPolicy};
use crate::context::{CacheStats, StageCache};
use crate::memory::{self, MemoryPlan, MemoryVerdict};
use crate::partition::{PartitionMode, Partitioner};
use crate::predictor::{Fetch, PendingBackward, Predictor};
use crate::report::{alu_efficiency, PipelineReport};
use crate::scheduler::{CspScheduler, SubnetTable};
use crate::task::{FinishedSet, StageId, TaskKind};
use naspipe_obs::telemetry::DEFAULT_SAMPLE_INTERVAL_US;
use naspipe_obs::{
    CausalEdge, CauseKind, Counter, CspChecker, FlightEventKind, FlightRecorder, MetricsRecorder,
    MetricsSnapshot, ObsReport, Recorder, RunMeta, Sample, SpanDraft, SpanId, SpanKind, SpanTrace,
    SpanTracer, TelemetryHub, TelemetryOptions, Tracer, Watchdog, WatchdogVerdict,
};
use naspipe_sim::cluster::Cluster;
use naspipe_sim::event::EventQueue;
use naspipe_sim::gpu::GpuId;
use naspipe_sim::time::{SimDuration, SimTime};
use naspipe_supernet::layer::{Domain, LayerRef};
use naspipe_supernet::profile::ProfiledSpace;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::{Subnet, SubnetId};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// One executed task with its timing — the raw material for metrics,
/// reproducibility analysis, and numeric training replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRecord {
    /// Compute start time.
    pub start: SimTime,
    /// Compute end time.
    pub end: SimTime,
    /// Forward or backward.
    pub kind: TaskKind,
    /// The subnet.
    pub subnet: SubnetId,
    /// The stage it ran on.
    pub stage: StageId,
    /// The block range this stage covered for this subnet.
    pub blocks: Range<usize>,
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Aggregate metrics (Table 2 row).
    pub report: PipelineReport,
    /// Every executed task, ordered by `(start, dispatch order)`.
    pub tasks: Vec<TaskRecord>,
    /// The subnets trained, in exploration order.
    pub subnets: Vec<Subnet>,
    /// Per-stage observability metrics (queue depth, preemptions,
    /// stall/bubble time, cache behaviour, task latencies).
    pub obs: ObsReport,
    /// Per-task spans with causal edges (simulated time), for Perfetto
    /// export and critical-path analysis. Empty when the run used a
    /// [`naspipe_obs::NullTracer`].
    pub spans: SpanTrace,
}

/// Why a run could not be performed.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Configuration invalid for the space.
    InvalidConfig(String),
    /// The policy cannot hold its parameters in GPU memory (e.g. GPipe on
    /// NLP.c0, §5.1).
    OutOfMemory {
        /// Bytes required per GPU.
        required: u64,
        /// Bytes available per GPU.
        available: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PipelineError::OutOfMemory {
                required,
                available,
            } => write!(
                f,
                "supernet parameters do not fit in GPU memory ({required} bytes needed, {available} available)"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Injection discipline derived from the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injection {
    /// Keep up to `window` subnets in flight.
    Window(u64),
    /// Inject `bulk` subnets, flush, repeat.
    Bulk(u64),
}

#[derive(Debug)]
enum Ev {
    FwdArrive {
        subnet: SubnetId,
        stage: u32,
        /// The span whose completion produced this arrival: the
        /// predecessor stage's forward, or [`SpanId::EXTERNAL`] at
        /// injection.
        src: SpanId,
    },
    BwdArrive {
        subnet: SubnetId,
        stage: u32,
        pending: Vec<PendingBackward>,
        /// The successor stage's backward span (or, at the last stage,
        /// this subnet's own forward span) that produced the gradient.
        src: SpanId,
    },
    TaskDone {
        subnet: SubnetId,
        stage: u32,
        kind: TaskKind,
        /// Span of the completing task.
        span: SpanId,
    },
}

/// The last stage-`k` backward to write one layer: `(done time, writer
/// subnet, writer span)`. Ordered by `(t, wid)`, so the maximum over a
/// set of candidates is the latest-finishing writer, ties going to the
/// higher subnet id.
type LastWrite = (SimTime, u64, SpanId);

struct StageState {
    fwd_ready: Vec<SubnetId>,
    bwd_ready: Vec<(SubnetId, Vec<PendingBackward>)>,
    busy: bool,
    // The CSP scheduler found no admissible forward here, and nothing it
    // reads (`fwd_ready`, `finished[..=k]`, the subnet table) has changed
    // since, so dispatch need not ask it again.
    csp_blocked: bool,
    cache: Option<StageCache>,
    ready_at: BTreeMap<LayerRef, SimTime>,
    predictor: Predictor,
    pinned: Vec<LayerRef>,
    // Tracing side-state (populated only when the tracer is enabled).
    // Why each queued task will start: arrival edge + arrival time.
    fwd_cause: BTreeMap<u64, (CausalEdge, SimTime)>,
    bwd_cause: BTreeMap<u64, (CausalEdge, SimTime)>,
    // The latest backward at this stage to write each layer, indexed by
    // `Engine::layer_slot`: the CSP shared-layer writer candidates for
    // later admissions.
    last_write: Vec<Option<LastWrite>>,
    // The fetch/prefetch span that will make each layer resident.
    ready_span: BTreeMap<LayerRef, SpanId>,
}

/// Runs the configured pipeline over `space`, sampling subnets uniformly
/// from `config.seed`.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidConfig`] for malformed configurations
/// and [`PipelineError::OutOfMemory`] when the policy's resident
/// parameters exceed device memory.
pub fn run_pipeline(
    space: &SearchSpace,
    config: &PipelineConfig,
) -> Result<PipelineOutcome, PipelineError> {
    let mut sampler = UniformSampler::new(space, config.seed);
    let subnets = sampler.take_subnets(config.num_subnets as usize);
    run_pipeline_with_subnets(space, config, subnets)
}

/// Like [`run_pipeline`] but over an explicit subnet stream (so different
/// policies and GPU counts can train the *same* exploration order).
///
/// # Errors
///
/// See [`run_pipeline`].
///
/// # Panics
///
/// Panics if any subnet is invalid for `space`.
pub fn run_pipeline_with_subnets(
    space: &SearchSpace,
    config: &PipelineConfig,
    subnets: Vec<Subnet>,
) -> Result<PipelineOutcome, PipelineError> {
    run_pipeline_with_tracer(space, config, subnets, Box::new(SpanTracer::new()))
}

/// Like [`run_pipeline_with_subnets`] but with an explicit [`Tracer`].
///
/// Pass a [`naspipe_obs::NullTracer`] to prove tracing off the hot path:
/// the outcome is identical to a traced run except `spans` is empty.
///
/// # Errors
///
/// See [`run_pipeline`].
///
/// # Panics
///
/// Panics if any subnet is invalid for `space`.
pub fn run_pipeline_with_tracer(
    space: &SearchSpace,
    config: &PipelineConfig,
    subnets: Vec<Subnet>,
    tracer: Box<dyn Tracer>,
) -> Result<PipelineOutcome, PipelineError> {
    run_pipeline_telemetry(space, config, subnets, tracer, None)
}

/// Like [`run_pipeline_with_tracer`] but with an optional live-telemetry
/// hub attached: the engine publishes a [`MetricsSnapshot`] of its
/// recorder whenever simulated time crosses the sampling interval
/// (`opts.sample_interval_us`, falling back to
/// `config.sample_interval_us`, then the telemetry default), plus one
/// final snapshot at the makespan, so a [`naspipe_obs::MetricsServer`]
/// scraping the hub sees the run progress in simulated time. The
/// returned report embeds the published series. Telemetry never touches
/// the event queue: schedules and training results are bit-identical
/// with and without a hub.
///
/// # Errors
///
/// See [`run_pipeline`].
///
/// # Panics
///
/// Panics if any subnet is invalid for `space`.
pub fn run_pipeline_telemetry(
    space: &SearchSpace,
    config: &PipelineConfig,
    subnets: Vec<Subnet>,
    tracer: Box<dyn Tracer>,
    telemetry: Option<&TelemetryOptions>,
) -> Result<PipelineOutcome, PipelineError> {
    config
        .validate(space)
        .map_err(PipelineError::InvalidConfig)?;
    if subnets.len() as u64 != config.num_subnets {
        return Err(PipelineError::InvalidConfig(format!(
            "{} subnets supplied but config.num_subnets = {}",
            subnets.len(),
            config.num_subnets
        )));
    }
    for s in &subnets {
        assert!(s.is_valid_for(space), "subnet {s} invalid for space");
    }
    let mut engine = Engine::new(space, config, subnets, tracer)?;
    engine.telemetry = telemetry.map(|t| {
        let interval_us = if t.sample_interval_us != 0 {
            t.sample_interval_us
        } else if config.sample_interval_us != 0 {
            config.sample_interval_us
        } else {
            DEFAULT_SAMPLE_INTERVAL_US
        };
        DesTelemetry {
            hub: Arc::clone(&t.hub),
            interval_us,
            next_us: interval_us,
        }
    });
    engine.run()
}

/// SimTime-driven telemetry state for the DES engine: the hub snapshots
/// are published when the simulation clock crosses `next_us`, the
/// discrete-event analogue of the threaded runtime's sampler thread.
struct DesTelemetry {
    hub: Arc<TelemetryHub>,
    interval_us: u64,
    next_us: u64,
}

/// SimTime-driven watchdog twin: the detectors observe recorder
/// snapshots taken when the simulation clock crosses `next_us`, so every
/// verdict — including its trip time — is a pure function of the run's
/// inputs (bitwise reproducible across hosts and `NASPIPE_THREADS`).
struct DesWatchdog {
    wd: Watchdog,
    interval_us: u64,
    next_us: u64,
    verdicts: Vec<WatchdogVerdict>,
}

/// Reference pipeline batch of a space's domain when the space is unnamed.
fn domain_reference_batch(domain: Domain) -> u32 {
    match domain {
        Domain::Nlp => 192,
        Domain::Cv => 64,
    }
}

struct Engine<'a> {
    space: &'a SearchSpace,
    config: &'a PipelineConfig,
    d: u32,
    batch: u32,
    reference_batch: u32,
    plan: MemoryPlan,
    partitioner: Partitioner,
    cluster: Cluster,
    queue: EventQueue<Ev>,
    stages: Vec<StageState>,
    finished: Vec<FinishedSet>,
    table: SubnetTable,
    scheduler: CspScheduler,
    // Offset of each block's candidates in a flat per-layer table: layer
    // `(b, c)` lives at `layer_slot[b] + c`.
    layer_slot: Vec<usize>,
    subnets: Vec<Subnet>,
    injected: u64,
    completed: u64,
    records: Vec<TaskRecord>,
    injection: Injection,
    use_csp: bool,
    use_predictor: bool,
    makespan: SimTime,
    last_event: SimTime,
    idle_blocked_us: Vec<u64>,
    idle_empty_us: Vec<u64>,
    faults: u64,
    recorder: MetricsRecorder,
    // Per-stage cache stats already folded into the recorder; the next
    // sync emits only the delta.
    cache_seen: Vec<CacheStats>,
    // Debug-mode independent re-check of the CSP contract on CSP runs.
    checker: Option<CspChecker>,
    // Per-task span emission with causal edges (NullTracer = off).
    tracer: Box<dyn Tracer>,
    // SimTime-paced live-telemetry publisher (None = off).
    telemetry: Option<DesTelemetry>,
    // Always-on bounded flight recorder (None only when diagnostics are
    // explicitly disabled).
    flight: Option<FlightRecorder>,
    // SimTime-paced deterministic watchdog twin (same gating).
    watchdog: Option<DesWatchdog>,
}

impl<'a> Engine<'a> {
    fn new(
        space: &'a SearchSpace,
        config: &'a PipelineConfig,
        subnets: Vec<Subnet>,
        tracer: Box<dyn Tracer>,
    ) -> Result<Self, PipelineError> {
        let d = config.num_gpus;
        let plan = memory::plan(space, config.policy, d, config.cache_factor);
        let batch = if config.batch > 0 {
            config.batch
        } else {
            match plan.verdict {
                MemoryVerdict::Supported { batch } => batch,
                MemoryVerdict::ParametersDontFit {
                    required,
                    available,
                } => {
                    return Err(PipelineError::OutOfMemory {
                        required,
                        available,
                    })
                }
            }
        };
        let reference_batch = space
            .id()
            .map(|id| id.default_batch())
            .unwrap_or_else(|| domain_reference_batch(space.domain()));

        let mode = match config.policy {
            SyncPolicy::Csp { mirroring, .. } if mirroring => PartitionMode::Mirrored,
            _ => PartitionMode::Static,
        };
        let profile = ProfiledSpace::new(space, reference_batch);
        let partitioner = Partitioner::new(profile, d, mode);

        let (use_csp, use_predictor) = match config.policy {
            SyncPolicy::Csp {
                scheduler,
                predictor,
                ..
            } => (scheduler, predictor),
            _ => (false, false),
        };
        let swap = config.policy.swaps_parameters();

        // Cache sizing: `cache_factor` mean subnet stage slices (~3x for
        // NASPipe — current + evicting + prefetched; 2x for VPipe). The
        // capacity is a soft limit: required swap-ins are always admitted,
        // prefetches are refused under pressure.
        let cache = if swap {
            let mean_slice = memory::mean_subnet_param_bytes(space) as f64 / f64::from(d);
            let factor = match config.policy {
                SyncPolicy::Csp { .. } => config.cache_factor,
                _ => 2.0, // VPipe: current + prefetched subnet
            };
            Some(((mean_slice * factor) as u64).max(1))
        } else {
            None
        };

        let mut layer_slot = Vec::with_capacity(space.num_blocks());
        let mut num_layers = 0;
        for block in space.blocks() {
            layer_slot.push(num_layers);
            num_layers += block.num_choices() as usize;
        }

        let stages = (0..d)
            .map(|_| StageState {
                fwd_ready: Vec::new(),
                bwd_ready: Vec::new(),
                busy: false,
                csp_blocked: false,
                cache: cache.map(StageCache::new),
                ready_at: BTreeMap::new(),
                predictor: Predictor::new(),
                pinned: Vec::new(),
                fwd_cause: BTreeMap::new(),
                bwd_cause: BTreeMap::new(),
                last_write: vec![None; num_layers],
                ready_span: BTreeMap::new(),
            })
            .collect();

        let injection = match config.policy {
            SyncPolicy::Csp { scheduler, .. } => Injection::Window(if scheduler {
                config.max_queue as u64
            } else {
                1
            }),
            SyncPolicy::Bsp { .. } => Injection::Bulk(u64::from(config.policy.bulk_size(d))),
            // 1F1B keeps one forward and one backward of distinct batches
            // per stage in flight: 2D batches saturate the pipeline.
            SyncPolicy::Asp => Injection::Window(2 * u64::from(d)),
        };

        Ok(Self {
            space,
            config,
            d,
            batch,
            reference_batch,
            plan,
            partitioner,
            cluster: Cluster::with_hosts(
                d,
                config.gpus_per_host,
                naspipe_sim::cluster::GPU_MEMORY_BYTES,
            ),
            queue: EventQueue::new(),
            stages,
            finished: vec![FinishedSet::new(); d as usize],
            table: SubnetTable::new(),
            scheduler: CspScheduler::new(),
            layer_slot,
            subnets,
            injected: 0,
            completed: 0,
            records: Vec::new(),
            injection,
            use_csp,
            use_predictor,
            makespan: SimTime::ZERO,
            last_event: SimTime::ZERO,
            idle_blocked_us: vec![0; d as usize],
            idle_empty_us: vec![0; d as usize],
            faults: 0,
            recorder: MetricsRecorder::new(),
            cache_seen: vec![CacheStats::default(); d as usize],
            // Only CSP runs promise the causal contract; debug builds
            // re-verify every admission against it.
            checker: (cfg!(debug_assertions) && use_csp).then(CspChecker::new),
            tracer,
            telemetry: None,
            flight: config
                .diagnostics
                .enabled
                .then(|| FlightRecorder::new(d as usize, config.diagnostics.flight_capacity)),
            watchdog: config.diagnostics.enabled.then(|| {
                let interval_us = if config.sample_interval_us != 0 {
                    config.sample_interval_us
                } else {
                    DEFAULT_SAMPLE_INTERVAL_US
                };
                DesWatchdog {
                    wd: Watchdog::new(d as usize, config.diagnostics.watchdog.clone()),
                    interval_us,
                    next_us: interval_us,
                    verdicts: Vec::new(),
                }
            }),
        })
    }

    fn batch_scale(&self) -> f64 {
        // Compute time saturates: below the saturation batch the GPU is
        // launch/occupancy bound (this is why small-batch baselines lose
        // throughput even at equal bubble ratios).
        let sat = 2.0 * f64::from(self.reference_batch);
        (f64::from(self.batch) + sat) / (f64::from(self.reference_batch) + sat)
    }

    fn in_flight(&self) -> u64 {
        self.injected - self.completed
    }

    fn try_inject(&mut self, now: SimTime) {
        let total = self.config.num_subnets;
        let want = match self.injection {
            Injection::Window(w) => {
                if self.in_flight() >= w {
                    0
                } else {
                    (w - self.in_flight()).min(total - self.injected)
                }
            }
            Injection::Bulk(b) => {
                if self.in_flight() > 0 {
                    0
                } else {
                    b.min(total - self.injected)
                }
            }
        };
        for _ in 0..want {
            let subnet = self.subnets[self.injected as usize].clone();
            let partition = self.partitioner.partition_for(&subnet);
            if let Some(checker) = self.checker.as_mut() {
                let layers = subnet.layers().map(|l| {
                    let owner = partition
                        .stage_of_block(l.block as usize)
                        .map(|s| s.0)
                        .unwrap_or(0);
                    (l, owner)
                });
                checker
                    .register(subnet.seq_id(), layers)
                    .unwrap_or_else(|v| panic!("{v}"));
            }
            self.table
                .insert(subnet.clone(), partition)
                .unwrap_or_else(|dup| panic!("injection re-used a sequence ID: {dup}"));
            self.unblock_from(0);
            self.queue.push(
                now,
                Ev::FwdArrive {
                    subnet: subnet.seq_id(),
                    stage: 0,
                    src: SpanId::EXTERNAL,
                },
            );
            self.injected += 1;
        }
    }

    /// Layers of `subnet`'s stage-`k` slice with their parameter sizes.
    fn stage_layers(&mut self, subnet: SubnetId, k: u32) -> Vec<(LayerRef, u64)> {
        let entry = self.table.get(subnet).expect("subnet in table");
        let range = entry.partition.stage_range(StageId(k));
        let layers: Vec<LayerRef> = range
            .filter(|&b| !entry.subnet.skips(b))
            .map(|b| entry.subnet.layer(b))
            .collect();
        layers
            .into_iter()
            .map(|l| {
                let bytes = self.partitioner.profile().cost(l).param_bytes;
                (l, bytes)
            })
            .collect()
    }

    /// Ensures `subnet`'s stage-`k` context is resident; returns the time
    /// compute may start (after synchronous fetches and pending
    /// prefetches) and pins the layers. The second value is the
    /// latest-finishing fetch/prefetch span gating that start, if any —
    /// the `FetchCompletion` causal-edge candidate.
    fn acquire_context(
        &mut self,
        subnet: SubnetId,
        k: u32,
        now: SimTime,
    ) -> (SimTime, Option<(SpanId, SimTime)>) {
        if self.stages[k as usize].cache.is_none() {
            return (now, None);
        }
        let traced = self.tracer.enabled();
        let layers = self.stage_layers(subnet, k);
        let mut ready = now;
        let mut gate: Option<(SpanId, SimTime)> = None;
        let mut missing_bytes = 0u64;
        for (l, bytes) in &layers {
            let stage = &mut self.stages[k as usize];
            let cache = stage.cache.as_mut().expect("cache present");
            let hit = cache.access(*l, *bytes);
            cache.pin(*l);
            stage.pinned.push(*l);
            if hit {
                if let Some(&r) = stage.ready_at.get(l) {
                    ready = ready.max(r);
                    // A pending prefetch gates the start: candidate edge.
                    if traced && r > now && gate.is_none_or(|(_, t)| r > t) {
                        if let Some(&sp) = stage.ready_span.get(l) {
                            gate = Some((sp, r));
                        }
                    }
                }
            } else {
                missing_bytes += bytes;
            }
        }
        if missing_bytes > 0 {
            if let Some(f) = &self.flight {
                f.record(k, now.as_us(), FlightEventKind::FetchWait, missing_bytes);
            }
            let (_, end) = self.cluster.pcie_mut(GpuId(k)).transfer(now, missing_bytes);
            let fetch_span = if traced {
                self.tracer.emit(
                    SpanDraft::new(k, SpanKind::Fetch, now.as_us(), end.as_us()).subnet(subnet.0),
                )
            } else {
                SpanId::EXTERNAL
            };
            for (l, _) in &layers {
                let stage = &mut self.stages[k as usize];
                if !stage.ready_at.contains_key(l) {
                    stage.ready_at.insert(*l, end);
                    if traced {
                        stage.ready_span.insert(*l, fetch_span);
                    }
                }
            }
            ready = ready.max(end);
            if traced && gate.is_none_or(|(_, t)| end > t) {
                gate = Some((fetch_span, end));
            }
        }
        (ready, gate)
    }

    /// Folds stage `k`'s cache-stat growth since the last sync into the
    /// recorder (one emission site covers accesses, prefetches, and
    /// evictions alike), and emits an instant `Evict` span per eviction
    /// since the last sync.
    fn sync_cache_metrics(&mut self, k: u32, now: SimTime) {
        let Some(cache) = self.stages[k as usize].cache.as_mut() else {
            return;
        };
        let evictions = cache.take_evictions();
        let cur = cache.stats();
        if self.tracer.enabled() {
            for _ in &evictions {
                self.tracer
                    .emit(SpanDraft::new(k, SpanKind::Evict, now.as_us(), now.as_us()));
            }
        }
        let prev = self.cache_seen[k as usize];
        self.recorder
            .incr(k, Counter::CacheHit, cur.hits - prev.hits);
        self.recorder
            .incr(k, Counter::CacheMiss, cur.misses - prev.misses);
        self.recorder
            .incr(k, Counter::CacheEviction, cur.evictions - prev.evictions);
        self.recorder
            .incr(k, Counter::CachePrefetch, cur.prefetches - prev.prefetches);
        self.recorder.incr(
            k,
            Counter::CacheBytesFetched,
            cur.bytes_fetched - prev.bytes_fetched,
        );
        self.recorder.incr(
            k,
            Counter::CacheBytesEvicted,
            cur.bytes_evicted - prev.bytes_evicted,
        );
        self.cache_seen[k as usize] = cur;
    }

    fn release_context(&mut self, k: u32) {
        let stage = &mut self.stages[k as usize];
        if let Some(cache) = stage.cache.as_mut() {
            for l in stage.pinned.drain(..) {
                cache.unpin(l);
            }
        } else {
            stage.pinned.clear();
        }
    }

    /// Applies predictor fetches: starts asynchronous prefetches over the
    /// stage's PCIe link.
    fn apply_fetches(&mut self, k: u32, now: SimTime, fetches: &[Fetch]) {
        for fetch in fetches {
            if self.table.get(fetch.subnet).is_none() {
                continue;
            }
            let layers = self.stage_layers(fetch.subnet, k);
            for (l, bytes) in layers {
                let stage = &mut self.stages[k as usize];
                let cache = stage.cache.as_mut().expect("predictor implies cache");
                if cache.prefetch(l, bytes).is_some() {
                    let (_, end) = self.cluster.pcie_mut(GpuId(k)).transfer(now, bytes);
                    self.stages[k as usize].ready_at.insert(l, end);
                    if self.tracer.enabled() {
                        let span = self.tracer.emit(
                            SpanDraft::new(k, SpanKind::Prefetch, now.as_us(), end.as_us())
                                .subnet(fetch.subnet.0),
                        );
                        self.stages[k as usize].ready_span.insert(l, span);
                    }
                }
            }
        }
        self.sync_cache_metrics(k, now);
    }

    /// Pending backwards at the last stage: queued forwards that are
    /// causally blocked, with their first blocker.
    fn pending_backwards(&mut self, k: u32) -> Vec<PendingBackward> {
        if !self.use_predictor {
            return Vec::new();
        }
        let mut pending = Vec::new();
        for &y in &self.stages[k as usize].fwd_ready {
            if CspScheduler::admissible(y, &self.finished, &self.table, StageId(k)) {
                continue;
            }
            let blocker = self
                .table
                .entries_below(y)
                .find(|(wid, w)| {
                    !self.finished[k as usize].contains(*wid)
                        && self
                            .table
                            .get(y)
                            .map(|e| {
                                e.subnet.conflicts_within(
                                    e.partition.stage_range(StageId(k)),
                                    &w.subnet,
                                )
                            })
                            .unwrap_or(false)
                })
                .map(|(wid, _)| wid);
            if let Some(b) = blocker {
                pending.push(PendingBackward {
                    id: y,
                    precedence: b,
                });
            }
        }
        pending
    }

    /// Drops the blocked memo of stages `j..`: admission at stage `k`
    /// reads `finished[..=k]` and the subnet table, so a stage-`j` write
    /// (or a table insert, `j = 0`) can unblock exactly those stages.
    /// Retiring needs no call: it drops only subnets finished at every
    /// stage, which admission already skips.
    fn unblock_from(&mut self, j: u32) {
        for st in &mut self.stages[j as usize..] {
            st.csp_blocked = false;
        }
    }

    fn dispatch(&mut self, k: u32, now: SimTime) {
        if self.stages[k as usize].busy {
            return;
        }
        let depth =
            self.stages[k as usize].fwd_ready.len() + self.stages[k as usize].bwd_ready.len();
        self.recorder.sample(k, Sample::QueueDepth, depth as u64);
        // Backward tasks first (highest priority, lowest sequence ID).
        if !self.stages[k as usize].bwd_ready.is_empty() {
            if !self.stages[k as usize].fwd_ready.is_empty() {
                self.recorder.incr(k, Counter::BackwardPreemption, 1);
            }
            let idx = self.stages[k as usize]
                .bwd_ready
                .iter()
                .enumerate()
                .min_by_key(|(_, (id, _))| *id)
                .map(|(i, _)| i)
                .expect("non-empty");
            let (subnet, pending) = self.stages[k as usize].bwd_ready.remove(idx);
            self.run_task(subnet, k, TaskKind::Backward, now, pending);
            return;
        }
        // Then a forward, policy dependent.
        let picked = if self.use_csp {
            let stage = &mut self.stages[k as usize];
            let choice = if stage.csp_blocked {
                None
            } else {
                let choice = self.scheduler.schedule(
                    &stage.fwd_ready,
                    &self.finished,
                    &self.table,
                    StageId(k),
                );
                stage.csp_blocked = choice.is_none();
                choice
            };
            if choice.is_none() && !self.stages[k as usize].fwd_ready.is_empty() {
                // Candidates queued but none admissible: every one still
                // waits on an unfinished earlier sharer (a CSP stall).
                if let Some(f) = &self.flight {
                    f.record(
                        k,
                        now.as_us(),
                        FlightEventKind::CspStall,
                        self.stages[k as usize].fwd_ready.len() as u64,
                    );
                }
            }
            choice.map(|(qidx, qval)| {
                self.stages[k as usize].fwd_ready.remove(qidx);
                qval
            })
        } else if self.stages[k as usize].fwd_ready.is_empty() {
            None
        } else {
            // FIFO (BSP/ASP and the w/o-scheduler ablation).
            Some(self.stages[k as usize].fwd_ready.remove(0))
        };
        if let Some(subnet) = picked {
            self.run_task(subnet, k, TaskKind::Forward, now, Vec::new());
        }
    }

    fn run_task(
        &mut self,
        subnet: SubnetId,
        k: u32,
        kind: TaskKind,
        now: SimTime,
        pending: Vec<PendingBackward>,
    ) {
        // Debug-mode CSP assertion: the admission the scheduler just made
        // must be one the sequential exploration order allows.
        if kind == TaskKind::Forward {
            if let Some(checker) = self.checker.as_mut() {
                checker
                    .on_admit_forward(subnet, k)
                    .unwrap_or_else(|v| panic!("{v}"));
            }
            if let Some(f) = &self.flight {
                f.record(k, now.as_us(), FlightEventKind::Admission, subnet.0);
            }
        }
        // Predictor hooks (Algorithm 1 lines 6 and 21).
        if self.use_predictor {
            let stage = &mut self.stages[k as usize];
            let mut predictor = std::mem::take(&mut stage.predictor);
            let fetches = match kind {
                TaskKind::Backward => predictor.before_backward(
                    &mut self.scheduler,
                    &self.stages[k as usize].fwd_ready,
                    &self.finished,
                    &self.table,
                    StageId(k),
                    subnet,
                    &pending,
                ),
                TaskKind::Forward => predictor.before_forward(
                    &mut self.scheduler,
                    &self.stages[k as usize].fwd_ready,
                    &self.finished,
                    &self.table,
                    StageId(k),
                    subnet,
                ),
            };
            self.stages[k as usize].predictor = predictor;
            self.apply_fetches(k, now, &fetches);

            // Pipeline-status passing (§3.3): neighbouring stages can see
            // this dispatch coming and prefetch the same subnet's context
            // a full task ahead — a backward will reach stage k-1 next, a
            // forward will reach stage k+1 next.
            match kind {
                TaskKind::Backward if k > 0 => {
                    let fetch = [Fetch {
                        subnet,
                        kind: TaskKind::Backward,
                    }];
                    self.apply_fetches(k - 1, now, &fetch);
                }
                TaskKind::Forward if k + 1 < self.d => {
                    let fetch = [Fetch {
                        subnet,
                        kind: TaskKind::Forward,
                    }];
                    self.apply_fetches(k + 1, now, &fetch);
                }
                _ => {}
            }
        }

        let (ready, fetch_gate) = self.acquire_context(subnet, k, now);

        // Bind the causal edge: of everything this task waited on — the
        // arrival that queued it, the last CSP shared-layer writer that
        // released its admission, the fetch that made its context
        // resident — the *latest-finishing* one is the cause; earlier
        // candidates were already satisfied by then. Resource ordering
        // (the stage finishing its previous task) is derived by the
        // analyzer, not recorded.
        let cause = if self.tracer.enabled() {
            let stage = &mut self.stages[k as usize];
            let mut cause = match kind {
                TaskKind::Forward => stage.fwd_cause.remove(&subnet.0),
                TaskKind::Backward => stage.bwd_cause.remove(&subnet.0),
            };
            if kind == TaskKind::Forward && self.use_csp {
                // The writer is the latest stage-k backward sharing a layer
                // of this forward's stage-k slice. The last-write table
                // holds writers of any id, yet its maximum is always an
                // earlier subnet: a later sharer `w > subnet` must run its
                // forward over the shared layer first, which CSP admits
                // only after `subnet`'s own backward at a stage <= k — so
                // after this admission.
                let entry = self.table.get(subnet).expect("subnet in table");
                let last_write = &self.stages[k as usize].last_write;
                let writer = entry
                    .partition
                    .stage_range(StageId(k))
                    .filter(|&b| !entry.subnet.skips(b))
                    .filter_map(|b| {
                        last_write[self.layer_slot[b] + entry.subnet.choices()[b] as usize]
                    })
                    .max();
                if let Some((t, wid, src)) = writer {
                    debug_assert!(wid < subnet.0, "later SN{wid} wrote before {subnet} read");
                    if cause.is_none_or(|(_, ct)| t > ct) {
                        cause = Some((
                            CausalEdge {
                                src,
                                kind: CauseKind::CspWriterCompletion { writer: wid },
                            },
                            t,
                        ));
                    }
                }
            }
            if let Some((src, t)) = fetch_gate {
                if cause.is_none_or(|(_, ct)| t > ct) {
                    cause = Some((
                        CausalEdge {
                            src,
                            kind: CauseKind::FetchCompletion,
                        },
                        t,
                    ));
                }
            }
            cause
        } else {
            None
        };

        let entry = self.table.get(subnet).expect("subnet in table");
        let subnet_arch = entry.subnet.clone();
        let blocks = entry.partition.stage_range(StageId(k));
        let (fwd_ms, bwd_ms) = self.partitioner.stage_times(&subnet_arch, StageId(k));
        let scale = self.batch_scale();
        let ms = match kind {
            TaskKind::Forward => fwd_ms * scale,
            TaskKind::Backward => {
                // CSP hoists activation recomputation ahead of the
                // gradient's arrival (reserved in `reserve_recompute`);
                // BSP baselines rematerialise inside the backward pass.
                let recompute =
                    if self.config.policy.recomputes_activations() && !self.recompute_ahead() {
                        fwd_ms
                    } else {
                        0.0
                    };
                (bwd_ms + recompute) * scale
            }
        };
        // The backward wave approaches stage k-1 next: start its
        // recomputation now so the write lands as early as possible.
        if kind == TaskKind::Backward && self.recompute_ahead() && k > 0 {
            self.reserve_recompute(subnet, k - 1, now);
        }
        // Diagnosis slowdowns (`repro doctor` scenarios): deterministic
        // multiplicative scaling of the simulated duration. Guarded so a
        // factor of exactly 1.0 leaves the arithmetic — and therefore the
        // run — bitwise untouched.
        let diag = &self.config.diagnostics;
        let ms = if diag.compute_scale != 1.0 {
            ms * diag.compute_scale
        } else {
            ms
        };
        let ms = match diag.slow_stage {
            Some((stage, factor)) if stage == k && factor != 1.0 => ms * factor,
            _ => ms,
        };
        let ms = if self.config.jitter > 0.0 {
            // Deterministic per-task jitter in [1 - j, 1 + j].
            let tag = (subnet.0 << 9)
                ^ (u64::from(k) << 2)
                ^ (u64::from(kind == TaskKind::Backward) << 1)
                ^ 1;
            let mut rng = naspipe_supernet::rng::DetRng::new(self.config.seed).split(tag);
            ms * (1.0 + self.config.jitter * (2.0 * rng.next_f64() - 1.0))
        } else {
            ms
        };
        // Deterministic fault injection (the paper's runtime catches
        // per-stage exceptions and re-executes, §4.2): a failing attempt
        // wastes part of the task's compute, then the task retries.
        let ready = if self.config.fault_rate > 0.0 && self.faulty(subnet, k, kind) {
            self.faults += 1;
            let wasted = SimDuration::from_ms(ms * 0.6);
            let (w_start, w_end) = self
                .cluster
                .gpu_mut(GpuId(k))
                .compute_mut()
                .reserve_span(ready, wasted);
            if self.tracer.enabled() {
                self.tracer.emit(
                    SpanDraft::new(k, SpanKind::Replay, w_start.as_us(), w_end.as_us())
                        .subnet(subnet.0),
                );
            }
            if let Some(f) = &self.flight {
                f.record(k, w_start.as_us(), FlightEventKind::Fault, subnet.0);
                f.record(k, w_end.as_us(), FlightEventKind::Recovery, subnet.0);
            }
            w_end
        } else {
            ready
        };
        let (start, end) = self
            .cluster
            .gpu_mut(GpuId(k))
            .compute_mut()
            .reserve_span(ready, SimDuration::from_ms(ms));
        let (latency, count) = match kind {
            TaskKind::Forward => (Sample::ForwardLatencyUs, Counter::ForwardTask),
            TaskKind::Backward => (Sample::BackwardLatencyUs, Counter::BackwardTask),
        };
        self.recorder.sample(k, latency, end.since(start).as_us());
        self.recorder.incr(k, count, 1);
        self.sync_cache_metrics(k, now);
        let span = if self.tracer.enabled() {
            let span_kind = match kind {
                TaskKind::Forward => SpanKind::Forward,
                TaskKind::Backward => SpanKind::Backward,
            };
            let mut draft =
                SpanDraft::new(k, span_kind, start.as_us(), end.as_us()).subnet(subnet.0);
            if let Some((edge, _)) = cause {
                draft = draft.caused_by(edge.src, edge.kind);
            }
            self.tracer.emit(draft)
        } else {
            SpanId::EXTERNAL
        };
        self.stages[k as usize].busy = true;
        self.records.push(TaskRecord {
            start,
            end,
            kind,
            subnet,
            stage: StageId(k),
            blocks,
        });
        self.queue.push(
            end,
            Ev::TaskDone {
                subnet,
                stage: k,
                kind,
                span,
            },
        );
    }

    fn boundary_bytes(&self) -> u64 {
        memory::boundary_bytes_per_sample(self.space.domain()) * u64::from(self.batch)
    }

    /// Deterministic per-task fault decision: a pure function of the
    /// seed and the task identity, so faulty runs stay reproducible.
    fn faulty(&self, subnet: SubnetId, stage: u32, kind: TaskKind) -> bool {
        let tag = (subnet.0 << 8) ^ (u64::from(stage) << 1) ^ u64::from(kind == TaskKind::Backward);
        let mut rng = naspipe_supernet::rng::DetRng::new(self.config.seed).split(tag);
        rng.next_f64() < self.config.fault_rate
    }

    /// Whether activation recomputation is hoisted ahead of the gradient's
    /// arrival (a CSP context-preparation optimisation; the BSP/ASP
    /// baselines keep standard in-backward rematerialisation).
    fn recompute_ahead(&self) -> bool {
        self.config.recompute_ahead
            && matches!(self.config.policy, SyncPolicy::Csp { .. })
            && self.config.policy.recomputes_activations()
    }

    /// Reserves stage `k`'s compute for recomputing `subnet`'s forward
    /// slice, to overlap with the backward wave still one stage away.
    fn reserve_recompute(&mut self, subnet: SubnetId, k: u32, now: SimTime) {
        let Some(entry) = self.table.get(subnet) else {
            return;
        };
        let subnet_arch = entry.subnet.clone();
        let (fwd_ms, _) = self.partitioner.stage_times(&subnet_arch, StageId(k));
        let ms = fwd_ms * self.batch_scale();
        let (start, end) = self
            .cluster
            .gpu_mut(GpuId(k))
            .compute_mut()
            .reserve_span(now, SimDuration::from_ms(ms));
        if self.tracer.enabled() {
            self.tracer.emit(
                SpanDraft::new(k, SpanKind::Recompute, start.as_us(), end.as_us()).subnet(subnet.0),
            );
        }
    }

    fn on_task_done(
        &mut self,
        subnet: SubnetId,
        k: u32,
        kind: TaskKind,
        now: SimTime,
        span: SpanId,
    ) {
        self.stages[k as usize].busy = false;
        self.release_context(k);
        self.makespan = self.makespan.max(now);
        match kind {
            TaskKind::Forward => {
                if k + 1 < self.d {
                    let dt = self
                        .cluster
                        .stage_transfer_time(GpuId(k), self.boundary_bytes());
                    self.queue.push(
                        now + dt,
                        Ev::FwdArrive {
                            subnet,
                            stage: k + 1,
                            src: span,
                        },
                    );
                } else {
                    // Last stage: backward becomes ready immediately,
                    // carrying the pending-backward list (Algorithm 3).
                    if self.recompute_ahead() {
                        self.reserve_recompute(subnet, k, now);
                    }
                    let pending = self.pending_backwards(k);
                    self.queue.push(
                        now,
                        Ev::BwdArrive {
                            subnet,
                            stage: k,
                            pending,
                            src: span,
                        },
                    );
                }
            }
            TaskKind::Backward => {
                if self.tracer.enabled() {
                    let arch = &self.table.get(subnet).expect("subnet in table").subnet;
                    let last_write = &mut self.stages[k as usize].last_write;
                    for (b, &c) in arch.choices().iter().enumerate() {
                        if !arch.skips(b) {
                            let slot = &mut last_write[self.layer_slot[b] + c as usize];
                            *slot = (*slot).max(Some((now, subnet.0, span)));
                        }
                    }
                }
                if let Some(checker) = self.checker.as_mut() {
                    checker
                        .on_backward_done(subnet, k)
                        .unwrap_or_else(|v| panic!("{v}"));
                }
                self.finished[k as usize].insert(subnet);
                self.unblock_from(k);
                if k > 0 {
                    let dt = self
                        .cluster
                        .stage_transfer_time(GpuId(k - 1), self.boundary_bytes());
                    let pending = if k == self.d - 1 {
                        self.pending_backwards(k)
                    } else {
                        Vec::new()
                    };
                    self.queue.push(
                        now + dt,
                        Ev::BwdArrive {
                            subnet,
                            stage: k - 1,
                            pending,
                            src: span,
                        },
                    );
                } else {
                    self.completed += 1;
                    let min_unfinished = self
                        .finished
                        .iter()
                        .map(|f| f.first_unfinished())
                        .min()
                        .expect("at least one stage");
                    self.table.retire_below(min_unfinished);
                    if let Some(checker) = self.checker.as_mut() {
                        checker.retire_below(min_unfinished);
                    }
                    self.try_inject(now);
                }
            }
        }
    }

    fn run(mut self) -> Result<PipelineOutcome, PipelineError> {
        // Ops-plane hookup (observation only): publish the run shape and
        // flip `/readyz` to admitting-work before the first injection.
        if let Some(ops) = &self.config.diagnostics.ops {
            ops.set_total_subnets(self.config.num_subnets);
            ops.set_phase(naspipe_obs::RunPhase::Running);
            ops.journal().emit(
                naspipe_obs::JournalLevel::Info,
                "run-start",
                None,
                0,
                format!(
                    "des run admitting work: {} stage(s), {} subnet(s)",
                    self.d, self.config.num_subnets
                ),
                vec![
                    ("stages".to_string(), self.d.to_string()),
                    ("subnets".to_string(), self.config.num_subnets.to_string()),
                ],
            );
        }
        self.try_inject(SimTime::ZERO);
        while let Some((now, ev)) = self.queue.pop() {
            // Attribute the elapsed interval: for each idle stage, was it
            // starved (no queued work) or causally blocked (queued work,
            // none admissible)?
            let dt = now.since(self.last_event).as_us();
            if dt > 0 {
                for k in 0..self.d as usize {
                    let st = &self.stages[k];
                    if st.busy {
                        continue;
                    }
                    if st.fwd_ready.is_empty() && st.bwd_ready.is_empty() {
                        self.idle_empty_us[k] += dt;
                        self.recorder.incr(k as u32, Counter::BubbleUs, dt);
                    } else {
                        self.idle_blocked_us[k] += dt;
                        self.recorder.incr(k as u32, Counter::StallUs, dt);
                    }
                }
                self.last_event = now;
            }
            // Publish a telemetry snapshot whenever simulated time crosses
            // the sampling boundary (catching up across long event gaps).
            if let Some(tel) = self.telemetry.as_mut() {
                let now_us = now.as_us();
                if now_us >= tel.next_us {
                    tel.hub.publish_snapshot(MetricsSnapshot::from_recorder(
                        &self.recorder,
                        now_us,
                        0,
                    ));
                    tel.next_us = now_us - now_us % tel.interval_us + tel.interval_us;
                }
            }
            // Watchdog twin: observe at the same simulated-time cadence
            // (its own cursor, so it runs with telemetry off). Verdicts —
            // including their trip times — are pure functions of the run.
            if let Some(dog) = self.watchdog.as_mut() {
                let now_us = now.as_us();
                if now_us >= dog.next_us {
                    let snap = MetricsSnapshot::from_recorder(&self.recorder, now_us, 0);
                    let fresh = dog.wd.observe(&snap);
                    for v in &fresh {
                        if let Some(f) = &self.flight {
                            f.record(
                                v.stage,
                                v.at_us,
                                FlightEventKind::WatchdogTrip,
                                v.kind as u64,
                            );
                        }
                        if let Some(tel) = self.telemetry.as_ref() {
                            tel.hub.record_watchdog_trip(v.kind);
                        }
                        if let Some(ops) = &self.config.diagnostics.ops {
                            ops.journal().emit(
                                naspipe_obs::JournalLevel::Warn,
                                "watchdog-trip",
                                Some(v.stage),
                                v.at_us,
                                v.render(),
                                v.journal_fields(),
                            );
                        }
                    }
                    dog.verdicts.extend(fresh);
                    dog.next_us = now_us - now_us % dog.interval_us + dog.interval_us;
                }
            }
            match ev {
                Ev::FwdArrive { subnet, stage, src } => {
                    let st = &mut self.stages[stage as usize];
                    st.fwd_ready.push(subnet);
                    st.csp_blocked = false;
                    if self.tracer.enabled() {
                        let kind = if src.is_external() {
                            CauseKind::Injection
                        } else {
                            CauseKind::ActivationArrival
                        };
                        self.stages[stage as usize]
                            .fwd_cause
                            .insert(subnet.0, (CausalEdge { src, kind }, now));
                    }
                }
                Ev::BwdArrive {
                    subnet,
                    stage,
                    pending,
                    src,
                } => {
                    self.stages[stage as usize]
                        .bwd_ready
                        .push((subnet, pending));
                    if self.tracer.enabled() {
                        self.stages[stage as usize].bwd_cause.insert(
                            subnet.0,
                            (
                                CausalEdge {
                                    src,
                                    kind: CauseKind::GradientArrival,
                                },
                                now,
                            ),
                        );
                    }
                }
                Ev::TaskDone {
                    subnet,
                    stage,
                    kind,
                    span,
                } => {
                    self.on_task_done(subnet, stage, kind, now, span);
                }
            }
            for k in 0..self.d {
                self.dispatch(k, now);
            }
        }
        assert_eq!(
            self.completed, self.config.num_subnets,
            "pipeline deadlocked: {}/{} subnets completed",
            self.completed, self.config.num_subnets
        );
        Ok(self.finish())
    }

    fn finish(mut self) -> PipelineOutcome {
        let makespan = self.makespan.max(SimTime::from_us(1));
        for k in 0..self.d {
            self.sync_cache_metrics(k, makespan); // final deltas (e.g. releases)
        }
        // One last watchdog observation at the makespan boundary, so a
        // straggler that only becomes visible in the closing window is
        // still caught deterministically.
        let verdicts = if let Some(dog) = self.watchdog.as_mut() {
            let snap = MetricsSnapshot::from_recorder(&self.recorder, makespan.as_us(), 0);
            let fresh = dog.wd.observe(&snap);
            for v in &fresh {
                if let Some(f) = &self.flight {
                    f.record(
                        v.stage,
                        v.at_us,
                        FlightEventKind::WatchdogTrip,
                        v.kind as u64,
                    );
                }
                if let Some(tel) = self.telemetry.as_ref() {
                    tel.hub.record_watchdog_trip(v.kind);
                }
                if let Some(ops) = &self.config.diagnostics.ops {
                    ops.journal().emit(
                        naspipe_obs::JournalLevel::Warn,
                        "watchdog-trip",
                        Some(v.stage),
                        v.at_us,
                        v.render(),
                        v.journal_fields(),
                    );
                }
            }
            dog.verdicts.extend(fresh);
            std::mem::take(&mut dog.verdicts)
        } else {
            Vec::new()
        };
        let mut obs = self
            .recorder
            .report(makespan.as_us())
            .with_meta(RunMeta::new("des", self.d).seed(self.config.seed));
        if let Some(tel) = self.telemetry.as_ref() {
            // Final snapshot after the cache-metric sync above, so the
            // hub's last published state equals the report totals.
            tel.hub.publish_snapshot(MetricsSnapshot::from_recorder(
                &self.recorder,
                makespan.as_us(),
                0,
            ));
            let (series, dropped) = tel.hub.series_points();
            obs = obs.with_series(series, dropped);
        }
        obs = obs.with_watchdog(verdicts);
        if let Some(f) = &self.flight {
            let log = f.snapshot();
            if let Some(path) = &self.config.diagnostics.flight_dump {
                if let Err(e) = log.write_dump(path, "end-of-run") {
                    eprintln!("naspipe: flight dump to {path} failed: {e}");
                }
            }
            obs = obs.with_flight(log.summary());
        }
        let eff = alu_efficiency(self.batch, self.reference_batch);
        let busy: Vec<f64> = self
            .cluster
            .gpus()
            .iter()
            .map(|g| g.compute().utilization(makespan))
            .collect();
        let bubble = 1.0 - busy.iter().sum::<f64>() / busy.len() as f64;
        let total_alu: f64 = busy.iter().map(|b| b * eff).sum();

        let cache_stats = self
            .stages
            .iter()
            .map(|s| s.cache.as_ref().map(|c| c.stats()).unwrap_or_default())
            .fold(CacheStats::default(), |mut acc, s| {
                acc.hits += s.hits;
                acc.misses += s.misses;
                acc.bytes_fetched += s.bytes_fetched;
                acc.bytes_evicted += s.bytes_evicted;
                acc.evictions += s.evictions;
                acc.prefetches += s.prefetches;
                acc
            });
        let swap = self.config.policy.swaps_parameters();

        // Per-GPU memory: resident parameters (cache high-water for
        // swapping systems, the full stage slice otherwise) plus the
        // activation working set at the supported batch.
        let act = self.plan.act_bytes_per_sample * u64::from(self.batch);
        let mem_factor: f64 = (0..self.d as usize)
            .map(|k| {
                let params = match &self.stages[k].cache {
                    Some(c) => c.high_water(),
                    None => self.plan.param_bytes_per_gpu,
                };
                let used = params + act + memory::WORKSPACE_BYTES;
                used.min(naspipe_sim::cluster::GPU_MEMORY_BYTES) as f64
                    / naspipe_sim::cluster::GPU_MEMORY_BYTES as f64
            })
            .sum();

        let busy_total_secs: f64 = busy.iter().map(|b| b * makespan.as_secs()).sum();
        let avg_exec = if self.completed == 0 {
            0.0
        } else {
            busy_total_secs / self.completed as f64
        };

        let report = PipelineReport {
            space: self.space.id(),
            policy: self.config.policy,
            num_gpus: self.d,
            batch: self.batch,
            makespan_secs: makespan.as_secs(),
            subnets_completed: self.completed,
            samples_processed: self.completed * u64::from(self.batch),
            bubble_ratio: bubble,
            total_alu,
            gpu_mem_factor: mem_factor,
            cpu_mem_gib: self.plan.cpu_bytes as f64 / 1_073_741_824.0,
            avg_subnet_exec_secs: avg_exec,
            cache_hit_rate: if swap {
                Some(cache_stats.hit_rate())
            } else {
                None
            },
            reported_param_bytes: self.plan.reported_param_bytes,
            cache_stats,
            scheduler_stats: self.scheduler.stats(),
            faults_injected: self.faults,
            stage_idle_blocked_secs: self
                .idle_blocked_us
                .iter()
                .map(|&us| us as f64 / 1e6)
                .collect(),
            stage_idle_empty_secs: self
                .idle_empty_us
                .iter()
                .map(|&us| us as f64 / 1e6)
                .collect(),
        };
        if let Some(ops) = &self.config.diagnostics.ops {
            ops.journal().emit(
                naspipe_obs::JournalLevel::Info,
                "run-end",
                None,
                makespan.as_us(),
                format!("run complete: {} subnet(s)", self.completed),
                vec![],
            );
            ops.set_phase(naspipe_obs::RunPhase::Done);
        }
        self.records.sort_by_key(|r| (r.start, r.subnet, r.stage));
        PipelineOutcome {
            report,
            tasks: self.records,
            subnets: self.subnets,
            obs,
            spans: self.tracer.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naspipe_obs::NullTracer;
    use naspipe_supernet::layer::Domain;

    fn small_space() -> SearchSpace {
        SearchSpace::uniform(Domain::Nlp, 8, 6)
    }

    fn run(policy: SyncPolicy, gpus: u32, n: u64) -> PipelineOutcome {
        let cfg = PipelineConfig {
            num_gpus: gpus,
            batch: 32,
            num_subnets: n,
            policy,
            max_queue: 30,
            cache_factor: 3.0,
            fault_rate: 0.0,
            gpus_per_host: 4,
            recompute_ahead: true,
            jitter: 0.0,
            seed: 42,
            compute_threads: 0,
            sample_interval_us: 0,
            diagnostics: Default::default(),
        };
        run_pipeline(&small_space(), &cfg).expect("run succeeds")
    }

    #[test]
    fn naspipe_completes_all_subnets() {
        let out = run(SyncPolicy::naspipe(), 4, 25);
        assert_eq!(out.report.subnets_completed, 25);
        assert_eq!(out.tasks.len(), 25 * 4 * 2);
        assert!(out.report.makespan_secs > 0.0);
        assert!(out.report.bubble_ratio >= 0.0 && out.report.bubble_ratio < 1.0);
    }

    #[test]
    fn all_policies_complete() {
        for policy in [
            SyncPolicy::naspipe(),
            SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
            SyncPolicy::Bsp {
                bulk: 0,
                swap: true,
            },
            SyncPolicy::Asp,
        ] {
            let out = run(policy, 4, 12);
            assert_eq!(out.report.subnets_completed, 12, "{policy:?}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(SyncPolicy::naspipe(), 4, 20);
        let b = run(SyncPolicy::naspipe(), 4, 20);
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.report, b.report);
        assert_eq!(a.obs, b.obs, "observability metrics must be deterministic");
        assert_eq!(a.spans, b.spans, "span traces must be deterministic");
    }

    #[test]
    fn null_tracer_run_is_identical_except_spans() {
        // Tracing must stay off the hot path: a NullTracer run matches a
        // traced run in every observable output, only `spans` differs.
        let space = small_space();
        let subnets = UniformSampler::new(&space, 42).take_subnets(20);
        let cfg = PipelineConfig::naspipe(4, 20).with_batch(32).with_seed(42);
        let traced = run_pipeline_with_subnets(&space, &cfg, subnets.clone()).unwrap();
        let untraced =
            run_pipeline_with_tracer(&space, &cfg, subnets, Box::new(NullTracer)).unwrap();
        assert_eq!(traced.tasks, untraced.tasks);
        assert_eq!(traced.report, untraced.report);
        assert_eq!(traced.obs, untraced.obs);
        assert!(
            untraced.spans.spans().is_empty(),
            "NullTracer emits nothing"
        );
        assert!(!traced.spans.spans().is_empty(), "default run is traced");
    }

    #[test]
    fn telemetry_run_is_identical_and_final_snapshot_matches_report() {
        use naspipe_obs::telemetry::diff_against_report;

        let space = small_space();
        let subnets = UniformSampler::new(&space, 42).take_subnets(20);
        let cfg = PipelineConfig::naspipe(4, 20)
            .with_batch(32)
            .with_seed(42)
            .with_sample_interval_us(500);
        let plain = run_pipeline_with_subnets(&space, &cfg, subnets.clone()).unwrap();

        let hub = Arc::new(TelemetryHub::new(4, 0));
        let opts = TelemetryOptions::new(Arc::clone(&hub));
        let live = run_pipeline_telemetry(
            &space,
            &cfg,
            subnets,
            Box::new(SpanTracer::new()),
            Some(&opts),
        )
        .unwrap();

        // Telemetry must be off the schedule path entirely.
        assert_eq!(plain.tasks, live.tasks);
        assert_eq!(plain.report, live.report);
        assert_eq!(plain.obs.stages, live.obs.stages);

        // Snapshots were published in simulated time, the final one at
        // the makespan agreeing exactly with the report totals.
        assert!(hub.published() >= 2, "expected interval + final snapshots");
        let last = hub.latest().expect("final snapshot");
        let diffs = diff_against_report(&last, &live.obs);
        assert!(diffs.is_empty(), "snapshot != report: {diffs:?}");

        // The report embeds the published series; the plain run has none.
        assert_eq!(live.obs.series.len(), hub.published() as usize);
        assert!(plain.obs.series.is_empty());
        let times: Vec<u64> = live.obs.series.iter().map(|p| p.at_us).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "series unsorted");
    }

    #[test]
    fn span_trace_covers_every_task_with_causes() {
        let out = run(SyncPolicy::naspipe(), 4, 20);
        let compute: Vec<_> = out
            .spans
            .spans()
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Forward | SpanKind::Backward))
            .collect();
        assert_eq!(
            compute.len(),
            out.tasks.len(),
            "one forward/backward span per task record"
        );
        // Every span's (stage, subnet, kind, start, end) matches a task.
        for s in &compute {
            let kind = if s.kind == SpanKind::Forward {
                TaskKind::Forward
            } else {
                TaskKind::Backward
            };
            assert!(
                out.tasks.iter().any(|t| t.stage.0 == s.stage
                    && Some(t.subnet.0) == s.subnet
                    && t.kind == kind
                    && t.start.as_us() == s.start_us
                    && t.end.as_us() == s.end_us),
                "span {s:?} has no matching task record"
            );
        }
        // Causal edges: every compute span except stage-0 injections has a
        // recorded cause, and every referenced span id exists.
        for s in &compute {
            if s.stage > 0 || s.kind == SpanKind::Backward {
                assert!(s.cause.is_some(), "span {s:?} should have a cause");
            }
            if let Some(edge) = &s.cause {
                if !edge.src.is_external() {
                    assert!(
                        out.spans.get(edge.src).is_some(),
                        "cause of {s:?} points at an unknown span"
                    );
                }
            }
        }
        // CSP admission gates show up as writer-completion edges somewhere
        // in a contended 20-subnet stream.
        assert!(
            out.spans.spans().iter().any(|s| matches!(
                s.cause,
                Some(CausalEdge {
                    kind: CauseKind::CspWriterCompletion { .. },
                    ..
                })
            )),
            "expected at least one CSP writer-completion edge"
        );
    }

    #[test]
    fn critical_path_matches_makespan_and_counters() {
        for (gpus, n) in [(2, 8), (4, 20), (8, 30)] {
            let out = run(SyncPolicy::naspipe(), gpus, n);
            let cp = naspipe_obs::critical_path(&out.spans);
            let makespan = out.spans.makespan_us();
            assert_eq!(
                cp.total_us, makespan,
                "critical path must span the whole run ({gpus} gpus)"
            );
            assert_eq!(cp.attributed_us(), cp.total_us, "every µs attributed");
            let report_us = (out.report.makespan_secs * 1e6).round() as u64;
            assert!(
                makespan.abs_diff(report_us) <= 1,
                "span makespan {makespan} vs report {report_us}"
            );
            // Path idle per stage can never exceed what the recorder saw
            // as that stage's total idle (stall + bubble).
            for (k, &idle) in cp.stage_idle_us.iter().enumerate() {
                let recorded = out.obs.stages[k].stall_us + out.obs.stages[k].bubble_us;
                assert!(
                    idle <= recorded + 1,
                    "stage {k}: path idle {idle} > recorded idle {recorded}"
                );
            }
        }
    }

    #[test]
    fn obs_report_counts_tasks_and_covers_every_stage() {
        let out = run(SyncPolicy::naspipe(), 4, 25);
        assert_eq!(out.obs.stages.len(), 4);
        let fwd: u64 = out.obs.stages.iter().map(|s| s.forward_tasks).sum();
        let bwd: u64 = out.obs.stages.iter().map(|s| s.backward_tasks).sum();
        assert_eq!(fwd, 25 * 4);
        assert_eq!(bwd, 25 * 4);
        let makespan_us = (out.report.makespan_secs * 1e6).round() as u64;
        assert!(out.obs.wall_us.abs_diff(makespan_us) <= 1);
        // The recorder's idle attribution mirrors the report's.
        for (k, s) in out.obs.stages.iter().enumerate() {
            let blocked = (out.report.stage_idle_blocked_secs[k] * 1e6).round() as u64;
            let empty = (out.report.stage_idle_empty_secs[k] * 1e6).round() as u64;
            assert_eq!(s.stall_us, blocked, "stage {k} stall");
            assert_eq!(s.bubble_us, empty, "stage {k} bubble");
        }
        // CSP at this scale swaps contexts: cache activity must show up.
        let lookups: u64 = out
            .obs
            .stages
            .iter()
            .map(|s| s.cache_hits + s.cache_misses)
            .sum();
        assert!(lookups > 0, "cache metrics were never synced");
    }

    #[test]
    fn invariant_checker_catches_a_corrupted_schedule() {
        // Rebuild a checker from a real CSP run's layer placement, then
        // corrupt the schedule: admit a conflicting later subnet's
        // forward before the earlier subnet wrote the shared layer.
        let out = run(SyncPolicy::naspipe(), 4, 15);
        // Per-subnet layer -> owner stage, from the forward records.
        let mut owners: BTreeMap<u64, Vec<(LayerRef, u32)>> = BTreeMap::new();
        for t in out.tasks.iter().filter(|t| t.kind == TaskKind::Forward) {
            let subnet = &out.subnets[t.subnet.0 as usize];
            let entry = owners.entry(t.subnet.0).or_default();
            for b in t.blocks.clone() {
                if !subnet.skips(b) {
                    entry.push((subnet.layer(b), t.stage.0));
                }
            }
        }
        let mut checker = CspChecker::new();
        for (id, layers) in &owners {
            checker
                .register(SubnetId(*id), layers.iter().copied())
                .unwrap();
        }
        // Find a conflicting pair (the sampled stream is dense enough to
        // guarantee one) and the stage at which the later subnet reads
        // the shared layer.
        let (w, y, layer) = out
            .subnets
            .iter()
            .enumerate()
            .find_map(|(i, a)| {
                out.subnets[i + 1..].iter().find_map(|b| {
                    a.layers()
                        .find(|l| b.layers().any(|m| m == *l))
                        .map(|l| (a.seq_id(), b.seq_id(), l))
                })
            })
            .expect("stream contains a causal conflict");
        let stage = owners[&y.0]
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|&(_, s)| s)
            .expect("y activates the shared layer");
        let err = checker.on_admit_forward(y, stage).unwrap_err();
        match &err {
            naspipe_obs::Violation::PrematureForward {
                later,
                earlier,
                layer: shared,
                ..
            } => {
                assert_eq!(*later, y);
                assert!(*earlier < y, "blames an earlier subnet");
                // The blamed earlier subnet really shares the layer.
                let e = &out.subnets[earlier.0 as usize];
                assert!(e.layers().any(|l| l == *shared));
                let _ = w; // any earlier sharer is a valid blame target
            }
            other => panic!("expected a premature-forward violation, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("{y}")) && msg.contains("shared layer"),
            "violation names the pair and the layer: {msg}"
        );
    }

    #[test]
    fn csp_preserves_per_layer_access_order() {
        let out = run(SyncPolicy::naspipe(), 4, 30);
        assert_csp_order(&out);
    }

    #[test]
    fn csp_order_holds_on_eight_gpus() {
        let out = run(SyncPolicy::naspipe(), 8, 30);
        assert_csp_order(&out);
    }

    /// For every layer, accesses ordered by task start time must be
    /// `fwd(x), bwd(x), fwd(y), bwd(y), ...` with x < y — sequential
    /// equivalence.
    fn assert_csp_order(out: &PipelineOutcome) {
        use std::collections::HashMap;
        let arch: HashMap<u64, &Subnet> = out.subnets.iter().map(|s| (s.seq_id().0, s)).collect();
        let mut per_layer: HashMap<LayerRef, Vec<(SimTime, TaskKind, u64)>> = HashMap::new();
        for t in &out.tasks {
            let subnet = arch[&t.subnet.0];
            for b in t.blocks.clone() {
                per_layer
                    .entry(subnet.layer(b))
                    .or_default()
                    .push((t.start, t.kind, t.subnet.0));
            }
        }
        for (layer, mut accesses) in per_layer {
            accesses.sort_by_key(|&(t, kind, id)| (t, id, kind));
            let mut expect: Vec<(TaskKind, u64)> =
                accesses.iter().map(|&(_, kind, id)| (kind, id)).collect();
            // Sequential order: by subnet id, forward before backward.
            expect.sort_by_key(|&(kind, id)| (id, kind != TaskKind::Forward));
            // Wait: TaskKind::Forward < Backward in enum order already.
            let got: Vec<(TaskKind, u64)> =
                accesses.iter().map(|&(_, kind, id)| (kind, id)).collect();
            assert_eq!(got, expect, "layer {layer} access order violates CSP");
        }
    }

    #[test]
    fn bsp_bulk_groups_forwards() {
        // Under BSP the forwards of a bulk all read the pre-bulk weights:
        // at stage 0 the forwards of the bulk run before any backward.
        let out = run(
            SyncPolicy::Bsp {
                bulk: 3,
                swap: false,
            },
            4,
            6,
        );
        let stage0: Vec<&TaskRecord> = out.tasks.iter().filter(|t| t.stage == StageId(0)).collect();
        let kinds: Vec<TaskKind> = stage0.iter().map(|t| t.kind).collect();
        assert_eq!(
            &kinds[..3],
            &[TaskKind::Forward; 3],
            "first bulk's forwards should precede its backwards at stage 0"
        );
    }

    #[test]
    fn asp_keeps_pipeline_fuller_than_bsp() {
        let asp = run(SyncPolicy::Asp, 4, 40);
        let bsp = run(
            SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
            4,
            40,
        );
        assert!(
            asp.report.bubble_ratio < bsp.report.bubble_ratio,
            "ASP {} !< BSP {}",
            asp.report.bubble_ratio,
            bsp.report.bubble_ratio
        );
    }

    #[test]
    fn without_scheduler_bubble_grows() {
        let with = run(SyncPolicy::naspipe(), 4, 30);
        let without = run(
            SyncPolicy::Csp {
                scheduler: false,
                predictor: true,
                mirroring: true,
            },
            4,
            30,
        );
        assert!(
            without.report.bubble_ratio > with.report.bubble_ratio,
            "w/o scheduler {} !> with {}",
            without.report.bubble_ratio,
            with.report.bubble_ratio
        );
    }

    #[test]
    fn cache_hit_rate_present_only_when_swapping() {
        let nas = run(SyncPolicy::naspipe(), 4, 20);
        assert!(nas.report.cache_hit_rate.is_some());
        let gpipe = run(
            SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
            4,
            20,
        );
        assert!(gpipe.report.cache_hit_rate.is_none());
    }

    #[test]
    fn predictor_raises_hit_rate_over_vpipe() {
        let nas = run(SyncPolicy::naspipe(), 4, 40);
        let vpipe = run(
            SyncPolicy::Bsp {
                bulk: 0,
                swap: true,
            },
            4,
            40,
        );
        let nas_hit = nas.report.cache_hit_rate.unwrap();
        let vpipe_hit = vpipe.report.cache_hit_rate.unwrap();
        assert!(
            nas_hit > vpipe_hit,
            "NASPipe hit {nas_hit} !> VPipe hit {vpipe_hit}"
        );
    }

    #[test]
    fn oom_for_policies_that_cannot_swap() {
        // NLP.c0's supernet does not fit in GPU memory without swapping.
        let space = SearchSpace::nlp_c0();
        let cfg = PipelineConfig {
            num_gpus: 8,
            batch: 0,
            num_subnets: 4,
            policy: SyncPolicy::Bsp {
                bulk: 0,
                swap: false,
            },
            max_queue: 30,
            cache_factor: 3.0,
            fault_rate: 0.0,
            gpus_per_host: 4,
            recompute_ahead: true,
            jitter: 0.0,
            seed: 0,
            compute_threads: 0,
            sample_interval_us: 0,
            diagnostics: Default::default(),
        };
        match run_pipeline(&space, &cfg) {
            Err(PipelineError::OutOfMemory { .. }) => {}
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn explicit_subnets_must_match_count() {
        let space = small_space();
        let cfg = PipelineConfig::naspipe(2, 3).with_batch(8);
        let err = run_pipeline_with_subnets(&space, &cfg, vec![]).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfig(_)));
        assert!(err.to_string().contains("invalid configuration"));
    }

    #[test]
    fn single_gpu_pipeline_works() {
        let out = run(SyncPolicy::naspipe(), 1, 10);
        assert_eq!(out.report.subnets_completed, 10);
        // On one GPU there is no pipeline overlap: tasks are serial.
        for w in out.tasks.windows(2) {
            assert!(w[1].start >= w[0].end);
        }
    }

    #[test]
    fn more_stages_than_blocks_yields_empty_stage_tasks() {
        // D = 8 over 4 blocks: some stages own no blocks; their tasks are
        // zero-cost pass-throughs but must still flow for the pipeline to
        // make progress.
        let space = SearchSpace::uniform(Domain::Nlp, 4, 4);
        let cfg = PipelineConfig::naspipe(8, 10).with_batch(8);
        let out = run_pipeline(&space, &cfg).unwrap();
        assert_eq!(out.report.subnets_completed, 10);
        assert_eq!(out.tasks.len(), 10 * 8 * 2);
        assert!(out.tasks.iter().any(|t| t.blocks.is_empty()));
    }

    #[test]
    fn single_subnet_fill_drain() {
        let out = run(SyncPolicy::naspipe(), 4, 1);
        assert_eq!(out.report.subnets_completed, 1);
        // One subnet cannot overlap with anything: high bubble.
        assert!(out.report.bubble_ratio > 0.5);
    }

    #[test]
    fn queue_cap_one_is_strictly_sequential() {
        let space = small_space();
        let subnets = UniformSampler::new(&space, 2).take_subnets(8);
        let mut cfg = PipelineConfig::naspipe(4, 8).with_batch(8).with_seed(2);
        cfg.max_queue = 1;
        let out = run_pipeline_with_subnets(&space, &cfg, subnets).unwrap();
        // With one subnet in flight at a time, completions are in order
        // and never overlap.
        let mut completions: Vec<(u64, SimTime, SimTime)> = out
            .tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Backward && t.stage == StageId(0))
            .map(|t| (t.subnet.0, t.start, t.end))
            .collect();
        completions.sort_by_key(|&(_, s, _)| s);
        let ids: Vec<u64> = completions.iter().map(|&(id, _, _)| id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn fault_injection_retries_and_stays_reproducible() {
        let space = small_space();
        let subnets = UniformSampler::new(&space, 5).take_subnets(30);
        let run_with_faults = |gpus: u32| {
            let cfg = PipelineConfig::naspipe(gpus, 30)
                .with_batch(16)
                .with_seed(5)
                .with_fault_rate(0.15);
            run_pipeline_with_subnets(&space, &cfg, subnets.clone()).unwrap()
        };
        let out4 = run_with_faults(4);
        assert_eq!(
            out4.report.subnets_completed, 30,
            "all subnets survive faults"
        );
        assert!(out4.report.faults_injected > 0, "faults should have fired");
        // Faulty runs stay deterministic...
        let again = run_with_faults(4);
        assert_eq!(out4.tasks, again.tasks);
        // ...and CSP order still holds, so training is still reproducible.
        let out8 = run_with_faults(8);
        use crate::train::{replay_training, TrainConfig};
        let tc = TrainConfig {
            dim: 4,
            rows: 2,
            ..TrainConfig::default()
        };
        assert_eq!(
            replay_training(&space, &out4, &tc).final_hash,
            replay_training(&space, &out8, &tc).final_hash,
        );
    }

    #[test]
    fn faults_slow_the_pipeline_down() {
        let space = small_space();
        let subnets = UniformSampler::new(&space, 5).take_subnets(30);
        let run_rate = |rate: f64| {
            let cfg = PipelineConfig::naspipe(4, 30)
                .with_batch(16)
                .with_seed(5)
                .with_fault_rate(rate);
            run_pipeline_with_subnets(&space, &cfg, subnets.clone())
                .unwrap()
                .report
                .makespan_secs
        };
        assert!(run_rate(0.3) > run_rate(0.0));
    }

    #[test]
    fn forward_precedes_backward_per_stage() {
        let out = run(SyncPolicy::naspipe(), 4, 15);
        use std::collections::HashMap;
        let mut fwd_end: HashMap<(u64, u32), SimTime> = HashMap::new();
        for t in &out.tasks {
            match t.kind {
                TaskKind::Forward => {
                    fwd_end.insert((t.subnet.0, t.stage.0), t.end);
                }
                TaskKind::Backward => {
                    let f = fwd_end[&(t.subnet.0, t.stage.0)];
                    assert!(t.start >= f, "backward before forward for {:?}", t);
                }
            }
        }
    }
}
