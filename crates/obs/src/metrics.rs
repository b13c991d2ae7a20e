//! Per-stage counters and histograms behind the [`Recorder`] trait.
//!
//! Emission sites in the runtimes call [`Recorder::incr`] /
//! [`Recorder::sample`]; the trait keeps the hot path to an array index
//! and an add, and lets tests substitute [`NullRecorder`] where metrics
//! are irrelevant.

use crate::report::{ObsReport, StageObs};

/// Monotonic per-stage event and time counters.
///
/// Time-valued counters (`StallUs`, `BubbleUs`) accumulate microseconds:
/// simulated time in the event-driven pipeline, wall-clock time in the
/// threaded runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Context-cache access that found the layer resident.
    CacheHit,
    /// Context-cache access that had to fetch the layer.
    CacheMiss,
    /// Layer evicted from the context cache to make room.
    CacheEviction,
    /// Layer prefetched ahead of use.
    CachePrefetch,
    /// Bytes fetched into the context cache.
    CacheBytesFetched,
    /// Bytes evicted from the context cache.
    CacheBytesEvicted,
    /// A ready backward task was dispatched ahead of a ready forward
    /// task (the CSP backward-first priority firing).
    BackwardPreemption,
    /// Forward tasks completed.
    ForwardTask,
    /// Backward tasks completed.
    BackwardTask,
    /// Time the stage sat idle with work queued but inadmissible
    /// (blocked on a causal dependency), in microseconds.
    StallUs,
    /// Time the stage sat idle with nothing queued (pipeline bubble),
    /// in microseconds.
    BubbleUs,
    /// Transient channel fault retried with backoff (fault-tolerant
    /// runtime).
    Retry,
    /// Stage worker respawned by the supervisor after a failure.
    Restart,
    /// Task re-executed after a recovery because its pre-failure effect
    /// was discarded by the checkpoint rollback.
    ReplayedTask,
    /// Compute-pool jobs submitted by this stage's kernels (one job per
    /// fanned-out tensor op). Deterministic: kernels fan out on shape
    /// thresholds, never on the worker count.
    PoolJob,
    /// Compute-pool chunks executed on behalf of this stage's jobs (the
    /// fixed, shape-derived work units). Also worker-count invariant.
    PoolChunk,
    /// Microseconds of compute-pool chunk execution attributed to this
    /// stage's jobs (summed across workers; timing-dependent).
    PoolBusyUs,
    /// Completed CSP-watermark cut persisted to durable storage by this
    /// stage (the stage that closed the cut writes the snapshot).
    DurablePersist,
    /// Run resumed from a durable on-disk snapshot (counted once per
    /// stage per cross-process resume).
    DurableResume,
}

/// Number of [`Counter`] variants; sizes the per-stage counter array.
pub const NUM_COUNTERS: usize = Counter::DurableResume as usize + 1;

impl Counter {
    /// Every variant in declaration (= index) order, so snapshot and
    /// exposition code can iterate the counter array without hardcoding
    /// the variant list twice.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::CacheHit,
        Counter::CacheMiss,
        Counter::CacheEviction,
        Counter::CachePrefetch,
        Counter::CacheBytesFetched,
        Counter::CacheBytesEvicted,
        Counter::BackwardPreemption,
        Counter::ForwardTask,
        Counter::BackwardTask,
        Counter::StallUs,
        Counter::BubbleUs,
        Counter::Retry,
        Counter::Restart,
        Counter::ReplayedTask,
        Counter::PoolJob,
        Counter::PoolChunk,
        Counter::PoolBusyUs,
        Counter::DurablePersist,
        Counter::DurableResume,
    ];

    /// Stable snake_case name used in the Prometheus exposition and the
    /// time-series JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::CacheHit => "cache_hit",
            Counter::CacheMiss => "cache_miss",
            Counter::CacheEviction => "cache_eviction",
            Counter::CachePrefetch => "cache_prefetch",
            Counter::CacheBytesFetched => "cache_bytes_fetched",
            Counter::CacheBytesEvicted => "cache_bytes_evicted",
            Counter::BackwardPreemption => "backward_preemption",
            Counter::ForwardTask => "forward_task",
            Counter::BackwardTask => "backward_task",
            Counter::StallUs => "stall_us",
            Counter::BubbleUs => "bubble_us",
            Counter::Retry => "retry",
            Counter::Restart => "restart",
            Counter::ReplayedTask => "replayed_task",
            Counter::PoolJob => "pool_job",
            Counter::PoolChunk => "pool_chunk",
            Counter::PoolBusyUs => "pool_busy_us",
            Counter::DurablePersist => "durable_persist",
            Counter::DurableResume => "durable_resume",
        }
    }
}

/// Distribution-valued per-stage observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Sample {
    /// Stage queue depth observed at each dispatch decision.
    QueueDepth,
    /// Forward task latency in microseconds.
    ForwardLatencyUs,
    /// Backward task latency in microseconds.
    BackwardLatencyUs,
}

/// Number of [`Sample`] variants; sizes the per-stage histogram array.
pub const NUM_SAMPLES: usize = Sample::BackwardLatencyUs as usize + 1;

impl Sample {
    /// Every variant in declaration (= index) order; see
    /// [`Counter::ALL`].
    pub const ALL: [Sample; NUM_SAMPLES] = [
        Sample::QueueDepth,
        Sample::ForwardLatencyUs,
        Sample::BackwardLatencyUs,
    ];

    /// Stable snake_case name used in the Prometheus exposition.
    pub fn name(self) -> &'static str {
        match self {
            Sample::QueueDepth => "queue_depth",
            Sample::ForwardLatencyUs => "forward_latency_us",
            Sample::BackwardLatencyUs => "backward_latency_us",
        }
    }
}

/// Sink for per-stage runtime metrics.
///
/// `stage` is the pipeline-stage index (0-based). Implementations must
/// tolerate any stage index — recorders grow on demand — so emission
/// sites never need to pre-declare the stage count.
pub trait Recorder: Send {
    /// Adds `by` to `counter` on `stage`.
    fn incr(&mut self, stage: u32, counter: Counter, by: u64);
    /// Records one observation of `sample` on `stage`.
    fn sample(&mut self, stage: u32, sample: Sample, value: u64);
}

/// A recorder that drops everything; for benchmarks and tests that want
/// the emission sites compiled but no bookkeeping.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn incr(&mut self, _stage: u32, _counter: Counter, _by: u64) {}
    fn sample(&mut self, _stage: u32, _sample: Sample, _value: u64) {}
}

/// A min/max/sum/count summary with power-of-two buckets.
///
/// Buckets hold counts of values whose bit length is the bucket index
/// (value 0 lands in bucket 0), giving a coarse latency distribution
/// without allocation on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` sentinel when empty; see
    /// [`min_or_zero`](Self::min_or_zero)).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Log2 buckets: `buckets[i]` counts values with bit length `i`.
    pub buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket.min(63)] += 1;
    }

    /// Mean of the recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min_or_zero(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Estimated `p`-th percentile (`p` in 0..=100), or 0.0 when empty.
    ///
    /// Walks the log2 buckets to the one holding the rank, then
    /// interpolates linearly inside that bucket's value range — exact to
    /// within the bucket's width (a factor of two), which is the
    /// resolution the recording scheme keeps. The estimate is clamped to
    /// the recorded `[min, max]`, so p0/p100 are exact.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 100.0) / 100.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= rank {
                // Bucket i holds values of bit length i:
                // [2^(i-1), 2^i - 1]; bucket 0 holds only 0.
                let (lo, hi) = if i == 0 {
                    (0.0, 0.0)
                } else {
                    ((1u64 << (i - 1)) as f64, ((1u128 << i) - 1) as f64)
                };
                let frac = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
                let v = lo + frac * (hi - lo);
                return v.clamp(self.min_or_zero() as f64, self.max as f64);
            }
            cum += c;
        }
        self.max as f64
    }

    /// Folds `other`'s observations into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

/// Metrics for one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageMetrics {
    counters: [u64; NUM_COUNTERS],
    samples: [Histogram; NUM_SAMPLES],
}

impl Default for StageMetrics {
    fn default() -> Self {
        StageMetrics {
            counters: [0; NUM_COUNTERS],
            samples: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl StageMetrics {
    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Histogram recorded for `sample`.
    pub fn histogram(&self, sample: Sample) -> &Histogram {
        &self.samples[sample as usize]
    }
}

/// The in-memory [`Recorder`]: a growable vector of per-stage metrics.
///
/// The threaded runtime gives each stage worker its own recorder and
/// [`merge`](MetricsRecorder::merge)s them after join, so recording
/// never contends on a lock.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MetricsRecorder {
    stages: Vec<StageMetrics>,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn stage_mut(&mut self, stage: u32) -> &mut StageMetrics {
        let idx = stage as usize;
        if idx >= self.stages.len() {
            self.stages.resize_with(idx + 1, StageMetrics::default);
        }
        &mut self.stages[idx]
    }

    /// Number of stages that have recorded anything.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Metrics for `stage`, if any were recorded.
    pub fn stage(&self, stage: u32) -> Option<&StageMetrics> {
        self.stages.get(stage as usize)
    }

    /// Folds `other`'s stages into `self` (per-worker recorder merge).
    pub fn merge(&mut self, other: &MetricsRecorder) {
        for (idx, theirs) in other.stages.iter().enumerate() {
            let mine = self.stage_mut(idx as u32);
            for c in 0..NUM_COUNTERS {
                mine.counters[c] += theirs.counters[c];
            }
            for s in 0..NUM_SAMPLES {
                mine.samples[s].merge(&theirs.samples[s]);
            }
        }
    }

    /// Snapshots the recorded metrics into a renderable [`ObsReport`].
    ///
    /// `wall_us` is the total run time (simulated or wall-clock) used to
    /// turn the stall/bubble counters into ratios; pass 0 when unknown
    /// and the ratios render as 0.
    pub fn report(&self, wall_us: u64) -> ObsReport {
        let stages = self
            .stages
            .iter()
            .enumerate()
            .map(|(idx, m)| {
                let hits = m.counter(Counter::CacheHit);
                let misses = m.counter(Counter::CacheMiss);
                let lookups = hits + misses;
                let fwd = m.histogram(Sample::ForwardLatencyUs);
                let bwd = m.histogram(Sample::BackwardLatencyUs);
                let depth = m.histogram(Sample::QueueDepth);
                StageObs {
                    stage: idx as u32,
                    forward_tasks: m.counter(Counter::ForwardTask),
                    backward_tasks: m.counter(Counter::BackwardTask),
                    backward_preemptions: m.counter(Counter::BackwardPreemption),
                    stall_us: m.counter(Counter::StallUs),
                    bubble_us: m.counter(Counter::BubbleUs),
                    stall_ratio: ratio(m.counter(Counter::StallUs), wall_us),
                    bubble_ratio: ratio(m.counter(Counter::BubbleUs), wall_us),
                    cache_hits: hits,
                    cache_misses: misses,
                    cache_evictions: m.counter(Counter::CacheEviction),
                    cache_prefetches: m.counter(Counter::CachePrefetch),
                    cache_hit_rate: ratio(hits, lookups),
                    retries: m.counter(Counter::Retry),
                    restarts: m.counter(Counter::Restart),
                    replayed_tasks: m.counter(Counter::ReplayedTask),
                    pool_jobs: m.counter(Counter::PoolJob),
                    pool_chunks: m.counter(Counter::PoolChunk),
                    pool_busy_us: m.counter(Counter::PoolBusyUs),
                    durable_persists: m.counter(Counter::DurablePersist),
                    durable_resumes: m.counter(Counter::DurableResume),
                    mean_queue_depth: depth.mean(),
                    max_queue_depth: depth.max,
                    queue_depth_p50: depth.percentile(50.0),
                    queue_depth_p95: depth.percentile(95.0),
                    queue_depth_p99: depth.percentile(99.0),
                    fwd_latency_mean_us: fwd.mean(),
                    fwd_latency_max_us: fwd.max,
                    fwd_latency_p50_us: fwd.percentile(50.0),
                    fwd_latency_p95_us: fwd.percentile(95.0),
                    fwd_latency_p99_us: fwd.percentile(99.0),
                    bwd_latency_mean_us: bwd.mean(),
                    bwd_latency_max_us: bwd.max,
                    bwd_latency_p50_us: bwd.percentile(50.0),
                    bwd_latency_p95_us: bwd.percentile(95.0),
                    bwd_latency_p99_us: bwd.percentile(99.0),
                }
            })
            .collect();
        ObsReport {
            wall_us,
            stages,
            ..ObsReport::default()
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Recorder for MetricsRecorder {
    fn incr(&mut self, stage: u32, counter: Counter, by: u64) {
        self.stage_mut(stage).counters[counter as usize] += by;
    }

    fn sample(&mut self, stage: u32, sample: Sample, value: u64) {
        self.stage_mut(stage).samples[sample as usize].record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_stage() {
        let mut r = MetricsRecorder::new();
        r.incr(0, Counter::CacheHit, 3);
        r.incr(2, Counter::CacheHit, 1);
        r.incr(0, Counter::CacheMiss, 2);
        assert_eq!(r.stage(0).unwrap().counter(Counter::CacheHit), 3);
        assert_eq!(r.stage(0).unwrap().counter(Counter::CacheMiss), 2);
        assert_eq!(r.stage(2).unwrap().counter(Counter::CacheHit), 1);
        assert_eq!(r.stage(1).unwrap().counter(Counter::CacheHit), 0);
        assert_eq!(r.num_stages(), 3);
    }

    #[test]
    fn histogram_tracks_distribution() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1039);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1024);
        assert!((h.mean() - 207.8).abs() < 1e-9);
        assert_eq!(h.buckets[1], 1); // value 1
        assert_eq!(h.buckets[11], 1); // value 1024
    }

    #[test]
    fn percentiles_are_monotone_and_clamped() {
        let mut h = Histogram::default();
        for v in 1u64..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 1.0, "p0 is the min");
        assert_eq!(h.percentile(100.0), 100.0, "p100 is the max");
        let p50 = h.percentile(50.0);
        let p95 = h.percentile(95.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p95 && p95 <= p99, "{p50} <= {p95} <= {p99}");
        // The true median (50.5) lives in bucket 6 = [32, 63]; the log2
        // interpolation must land in that bucket.
        assert!((32.0..=63.0).contains(&p50), "p50 = {p50}");
        assert!((64.0..=100.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn percentile_handles_edge_shapes() {
        assert_eq!(Histogram::default().percentile(50.0), 0.0, "empty");
        let mut zeros = Histogram::default();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.percentile(99.0), 0.0, "all-zero values");
        let mut single = Histogram::default();
        single.record(42);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(single.percentile(p), 42.0, "single value at p{p}");
        }
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::default();
        assert_eq!(h.count, 0);
        assert_eq!(h.sum, 0);
        assert_eq!(h.min_or_zero(), 0, "raw min is a MAX sentinel, not 0");
        assert_eq!(h.max, 0);
        assert_eq!(h.mean(), 0.0);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 0.0, "empty percentile p{p}");
        }
    }

    #[test]
    fn single_sample_histogram_pins_every_statistic() {
        // One observation occupies exactly one bucket: every percentile
        // (p99 included) must collapse to that value, and min == max.
        for v in [0u64, 1, 7, 42, 1 << 40] {
            let mut h = Histogram::default();
            h.record(v);
            assert_eq!(h.count, 1);
            assert_eq!(h.sum, v);
            assert_eq!(h.min, v);
            assert_eq!(h.max, v);
            assert_eq!(h.mean(), v as f64);
            for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
                assert_eq!(h.percentile(p), v as f64, "value {v} at p{p}");
            }
        }
    }

    #[test]
    fn merge_with_empty_preserves_min_sentinel() {
        // Empty histograms carry min == u64::MAX; merging one in either
        // direction must not corrupt min/max or resurrect phantom counts.
        let mut a = Histogram::default();
        a.record(42);
        a.merge(&Histogram::default());
        assert_eq!((a.count, a.min, a.max), (1, 42, 42));
        assert_eq!(a.percentile(99.0), 42.0);

        let mut b = Histogram::default();
        b.merge(&a);
        assert_eq!((b.count, b.min, b.max), (1, 42, 42));

        let mut e = Histogram::default();
        e.merge(&Histogram::default());
        assert_eq!(e.count, 0);
        assert_eq!(e.min, u64::MAX, "empty+empty keeps the sentinel");
        assert_eq!(e.min_or_zero(), 0);
        assert_eq!(e.percentile(99.0), 0.0);
    }

    #[test]
    fn merge_folds_counters_and_histograms() {
        let mut a = MetricsRecorder::new();
        a.incr(0, Counter::ForwardTask, 5);
        a.sample(0, Sample::QueueDepth, 3);
        let mut b = MetricsRecorder::new();
        b.incr(0, Counter::ForwardTask, 7);
        b.incr(1, Counter::BackwardTask, 2);
        b.sample(0, Sample::QueueDepth, 5);
        a.merge(&b);
        assert_eq!(a.stage(0).unwrap().counter(Counter::ForwardTask), 12);
        assert_eq!(a.stage(1).unwrap().counter(Counter::BackwardTask), 2);
        let h = a.stage(0).unwrap().histogram(Sample::QueueDepth);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 8);
    }

    #[test]
    fn report_computes_rates() {
        let mut r = MetricsRecorder::new();
        r.incr(0, Counter::CacheHit, 9);
        r.incr(0, Counter::CacheMiss, 1);
        r.incr(0, Counter::BubbleUs, 250_000);
        r.incr(0, Counter::StallUs, 500_000);
        let rep = r.report(1_000_000);
        let s = &rep.stages[0];
        assert!((s.cache_hit_rate - 0.9).abs() < 1e-12);
        assert!((s.bubble_ratio - 0.25).abs() < 1e-12);
        assert!((s.stall_ratio - 0.5).abs() < 1e-12);
    }
}
