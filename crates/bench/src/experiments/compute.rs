//! Compute-backend benchmark matrix: the packed deterministic kernels
//! against the pre-existing naive matmul at pool sizes {1, 4, 8}, plus
//! end-to-end replay and threaded runtime throughput per pool size.
//!
//! Three layers are measured, mirroring how the backend is wired in:
//!
//! 1. **Kernels** — `matmul` (packed, FMA/AVX-512 where available) vs
//!    [`Tensor::matmul_naive`] (the segmented-accumulation reference
//!    kernel) at several shapes, in GFLOP/s, with a bitwise-equality
//!    verdict per shape; the transposed multiplies `matmul_t` /
//!    `t_matmul` against their allocate-then-`transpose()` equivalents;
//!    and [`Tensor::matmul_batch`] over a scheduler-sized batch of small
//!    multiplies against the same multiplies issued one by one.
//! 2. **Replay** — a NASPipe schedule replayed numerically
//!    ([`replay_training`]) at each pool size, in subnets/s.
//! 3. **Runtime** — the threaded CSP runtime's wall-clock makespan.
//!
//! Every kernel output and end-to-end `final_hash` is fingerprinted, and
//! the matrix-level verdicts demand bitwise identity *across* the thread
//! counts — the determinism contract the whole backend is built on.
//! Throughputs are machine-dependent; the verdicts are not, and `repro
//! bench` asserts them. The JSON rendering (schema 2: a `runs` array,
//! one entry per thread count) is the `BENCH_compute.json` artifact
//! tracked at the repo root.
//!
//! Timing uses warm-up calls followed by best-of-8 calibrated batches:
//! on a shared noisy host a single cold pass under-reports by 2x or
//! more, and the minimum over several batches is the stable estimator
//! of the kernel's actual cost.

use crate::experiments::subnet_stream;
use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::run_pipeline_with_subnets;
use naspipe_core::runtime::run_threaded_observed;
use naspipe_core::train::{replay_training, TrainConfig};
use naspipe_obs::{parse_json, JsonValue};
use naspipe_supernet::layer::Domain;
use naspipe_supernet::space::SearchSpace;
use naspipe_tensor::pool;
use naspipe_tensor::tensor::{MmOp, Tensor};
use std::time::Instant;

/// Pool sizes the tracked artifact records, smallest first.
pub const DEFAULT_THREAD_COUNTS: &[usize] = &[1, 4, 8];

/// One matmul shape measured naive vs packed/tiled at one pool size.
#[derive(Debug, Clone)]
pub struct MatmulBench {
    /// Output rows.
    pub m: usize,
    /// Inner (contraction) dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Segmented-accumulation reference kernel throughput
    /// (single-threaded by construction; re-used across pool sizes).
    pub naive_gflops: f64,
    /// Packed/tiled kernel throughput at this run's pool size.
    pub tiled_gflops: f64,
    /// `tiled_gflops / naive_gflops`.
    pub speedup: f64,
    /// Whether tiled output is bitwise equal to the naive kernel's.
    pub bitwise_equal: bool,
    /// FNV-1a over the tiled output bits — compared across pool sizes.
    pub out_hash: u64,
}

/// One transposed-multiply measurement.
#[derive(Debug, Clone)]
pub struct TransposedBench {
    /// `"matmul_t"` (A·Bᵀ) or `"t_matmul"` (Aᵀ·B).
    pub op: &'static str,
    /// Fused-kernel throughput.
    pub gflops: f64,
    /// Explicit `transpose()` + `matmul` throughput.
    pub explicit_gflops: f64,
    /// Whether the fused output is bitwise equal to the explicit form.
    pub bitwise_equal: bool,
    /// FNV-1a over the fused output bits — compared across pool sizes.
    pub out_hash: u64,
}

/// The batched small-matmul family: a scheduler-sized batch issued
/// through [`Tensor::matmul_batch`] (one pool fan-out) against the same
/// multiplies issued one call at a time.
#[derive(Debug, Clone)]
pub struct BatchedBench {
    /// Multiplies per batch.
    pub count: usize,
    /// Rows of each multiply.
    pub m: usize,
    /// Contraction dimension of each multiply.
    pub k: usize,
    /// Columns of each multiply.
    pub n: usize,
    /// Throughput of the single-fan-out batch, GFLOP/s over all items.
    pub batched_gflops: f64,
    /// Throughput of the one-call-at-a-time loop.
    pub looped_gflops: f64,
    /// Whether every batched output is bitwise equal to its looped twin.
    pub bitwise_equal: bool,
}

/// One pool size's measurements.
#[derive(Debug, Clone)]
pub struct ComputeRun {
    /// Pool workers this run's parallel sections were bound to.
    pub threads: usize,
    /// Kernel measurements, one per shape.
    pub matmul: Vec<MatmulBench>,
    /// Transposed-multiply measurements at the square shape.
    pub transposed: Vec<TransposedBench>,
    /// The batched small-matmul measurement.
    pub batched: BatchedBench,
    /// Subnets replayed in the end-to-end measurement.
    pub replay_subnets: u64,
    /// Replay throughput at `replay_dim`.
    pub replay_subnets_per_s: f64,
    /// Numeric width of the replay/runtime measurements.
    pub replay_dim: usize,
    /// Replay's final parameter hash — must match across pool sizes.
    pub replay_final_hash: u64,
    /// Threaded-runtime wall clock for the same subnet list, µs.
    pub threaded_makespan_us: u64,
    /// Threaded runtime's final parameter hash — must equal the replay
    /// hash and match across pool sizes.
    pub threaded_final_hash: u64,
}

impl ComputeRun {
    /// Whether every within-run bitwise verdict holds at this pool size.
    #[must_use]
    pub fn bitwise_ok(&self) -> bool {
        self.matmul.iter().all(|s| s.bitwise_equal)
            && self.transposed.iter().all(|t| t.bitwise_equal)
            && self.batched.bitwise_equal
            && self.replay_final_hash == self.threaded_final_hash
    }
}

/// The full benchmark matrix: one [`ComputeRun`] per pool size plus the
/// host's visible parallelism (recorded so a reader can judge how much
/// thread scaling the measurement environment could even express).
#[derive(Debug, Clone)]
pub struct ComputeMatrix {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// One run per pool size, in [`DEFAULT_THREAD_COUNTS`] order.
    pub runs: Vec<ComputeRun>,
}

impl ComputeMatrix {
    /// Whether every run's within-run bitwise verdicts hold.
    #[must_use]
    pub fn bitwise_ok(&self) -> bool {
        self.runs.iter().all(ComputeRun::bitwise_ok)
    }

    /// Whether every fingerprint — kernel output hashes, replay and
    /// threaded final hashes — is identical across the thread counts.
    /// This is the cross-pool-size determinism verdict.
    #[must_use]
    pub fn cross_thread_invariant(&self) -> bool {
        let Some(first) = self.runs.first() else {
            return true;
        };
        self.runs.iter().all(|r| {
            r.matmul.len() == first.matmul.len()
                && r.transposed.len() == first.transposed.len()
                && r.matmul
                    .iter()
                    .zip(&first.matmul)
                    .all(|(a, b)| a.out_hash == b.out_hash)
                && r.transposed
                    .iter()
                    .zip(&first.transposed)
                    .all(|(a, b)| a.out_hash == b.out_hash)
                && r.replay_final_hash == first.replay_final_hash
                && r.threaded_final_hash == first.threaded_final_hash
        })
    }

    /// Whether every machine-independent verdict holds: per-run bitwise
    /// equality and cross-pool-size invariance.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.bitwise_ok() && self.cross_thread_invariant()
    }

    /// Speedup of the `side`³ square shape in the run at `threads`.
    #[must_use]
    pub fn square_speedup(&self, threads: usize, side: usize) -> Option<f64> {
        self.runs
            .iter()
            .find(|r| r.threads == threads)?
            .matmul
            .iter()
            .find(|s| s.m == side && s.k == side && s.n == side)
            .map(|s| s.speedup)
    }
}

/// Seconds per call of `f`: warm-up calls, a batch calibrated to >= 10
/// ms, then the best (minimum) batch mean of 8. The minimum filters the
/// scheduling noise of a shared host; it is the estimator the tracked
/// baselines are recorded with, so fresh checks compare like with like.
fn secs_per_iter(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f(); // warm caches, the pool, and the allocator
    }
    let mut iters = 1u32;
    let mut dt;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        dt = t0.elapsed().as_secs_f64();
        if dt >= 0.01 {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    let mut best = dt / f64::from(iters);
    for _ in 0..7 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / f64::from(iters));
    }
    best
}

fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    2.0 * (m as f64) * (k as f64) * (n as f64) / secs / 1e9
}

/// FNV-1a over the tensor's f32 bit patterns, little-endian.
fn fnv1a_bits(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in t.data() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn bits_eq(x: &Tensor, y: &Tensor) -> bool {
    x.data()
        .iter()
        .zip(y.data().iter())
        .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// A deterministic non-trivial operand (no zeros, mixed sign).
fn operand(rows: usize, cols: usize, phase: f32) -> Tensor {
    Tensor::from_vec(
        (0..rows * cols)
            .map(|i| (i as f32 * 0.37 + phase).sin() + 0.01)
            .collect(),
        &[rows, cols],
    )
}

/// The fixed kernel shape list (the headline number is the 256³ square;
/// the ragged shape exercises tail tiles).
const SHAPES: &[(usize, usize, usize)] = &[
    (64, 64, 64),
    (128, 128, 128),
    (256, 256, 256),
    (192, 320, 96),
];

/// One naive-reference measurement, shared across pool sizes (the naive
/// kernel never touches the pool).
struct NaiveRef {
    m: usize,
    k: usize,
    n: usize,
    gflops: f64,
    out: Tensor,
}

fn bench_naive() -> Vec<NaiveRef> {
    SHAPES
        .iter()
        .map(|&(m, k, n)| {
            let a = operand(m, k, 0.0);
            let b = operand(k, n, 1.0);
            let out = a.matmul_naive(&b);
            let secs = secs_per_iter(|| {
                std::hint::black_box(a.matmul_naive(std::hint::black_box(&b)));
            });
            NaiveRef {
                m,
                k,
                n,
                gflops: gflops(m, k, n, secs),
                out,
            }
        })
        .collect()
}

fn bench_shapes(naive: &[NaiveRef]) -> Vec<MatmulBench> {
    naive
        .iter()
        .map(|r| {
            let a = operand(r.m, r.k, 0.0);
            let b = operand(r.k, r.n, 1.0);
            let tiled = a.matmul(&b);
            let tiled_s = secs_per_iter(|| {
                std::hint::black_box(a.matmul(std::hint::black_box(&b)));
            });
            let tiled_gflops = gflops(r.m, r.k, r.n, tiled_s);
            MatmulBench {
                m: r.m,
                k: r.k,
                n: r.n,
                naive_gflops: r.gflops,
                tiled_gflops,
                speedup: tiled_gflops / r.gflops,
                bitwise_equal: bits_eq(&tiled, &r.out),
                out_hash: fnv1a_bits(&tiled),
            }
        })
        .collect()
}

fn bench_transposed(side: usize) -> Vec<TransposedBench> {
    let a = operand(side, side, 0.0);
    let b = operand(side, side, 1.0);
    let mt_out = a.matmul_t(&b);
    let mt = TransposedBench {
        op: "matmul_t",
        gflops: gflops(
            side,
            side,
            side,
            secs_per_iter(|| {
                std::hint::black_box(a.matmul_t(std::hint::black_box(&b)));
            }),
        ),
        explicit_gflops: gflops(
            side,
            side,
            side,
            secs_per_iter(|| {
                std::hint::black_box(a.matmul(&std::hint::black_box(&b).transpose()));
            }),
        ),
        bitwise_equal: bits_eq(&mt_out, &a.matmul(&b.transpose())),
        out_hash: fnv1a_bits(&mt_out),
    };
    let tm_out = a.t_matmul(&b);
    let tm = TransposedBench {
        op: "t_matmul",
        gflops: gflops(
            side,
            side,
            side,
            secs_per_iter(|| {
                std::hint::black_box(a.t_matmul(std::hint::black_box(&b)));
            }),
        ),
        explicit_gflops: gflops(
            side,
            side,
            side,
            secs_per_iter(|| {
                std::hint::black_box(std::hint::black_box(&a).transpose().matmul(&b));
            }),
        ),
        bitwise_equal: bits_eq(&tm_out, &a.transpose().matmul(&b)),
        out_hash: fnv1a_bits(&tm_out),
    };
    vec![mt, tm]
}

/// Benchmarks [`Tensor::matmul_batch`] over `count` small multiplies —
/// the per-layer shapes the scheduler actually issues (Table 5 of the
/// paper puts per-layer costs in exactly this small-matmul regime).
fn bench_batched(count: usize, m: usize, k: usize, n: usize) -> BatchedBench {
    let pairs: Vec<(Tensor, Tensor)> = (0..count)
        .map(|i| {
            let phase = i as f32 * 0.13;
            (operand(m, k, phase), operand(k, n, phase + 1.0))
        })
        .collect();
    let items: Vec<(MmOp, &Tensor, &Tensor)> =
        pairs.iter().map(|(a, b)| (MmOp::Nn, a, b)).collect();
    let batched = Tensor::matmul_batch(&items);
    let looped: Vec<Tensor> = pairs.iter().map(|(a, b)| a.matmul(b)).collect();
    let bitwise_equal = batched.iter().zip(&looped).all(|(x, y)| bits_eq(x, y));
    let total = |secs: f64| gflops(count * m, k, n, secs);
    let batched_s = secs_per_iter(|| {
        std::hint::black_box(Tensor::matmul_batch(std::hint::black_box(&items)));
    });
    let looped_s = secs_per_iter(|| {
        for (a, b) in &pairs {
            std::hint::black_box(a.matmul(std::hint::black_box(b)));
        }
    });
    BatchedBench {
        count,
        m,
        k,
        n,
        batched_gflops: total(batched_s),
        looped_gflops: total(looped_s),
        bitwise_equal,
    }
}

/// One pool size's full measurement pass. Kernel benches run on this
/// thread under a scoped pool binding; the end-to-end runs carry the
/// count through `TrainConfig::with_threads` (stage workers bind their
/// own pools).
fn run_at(threads: usize, n: u64, naive: &[NaiveRef]) -> ComputeRun {
    let (matmul, transposed, batched) = pool::with_threads(threads, || {
        (
            bench_shapes(naive),
            bench_transposed(256),
            bench_batched(16, 64, 128, 128),
        )
    });

    // End-to-end: schedule once, replay numerically at a pool-engaging
    // width. `PipelineConfig::compute_threads` carries the knob to
    // `TrainConfig::with_threads` — the pipeline itself is discrete-event
    // and does no numeric work.
    let dim = 128;
    let space = SearchSpace::uniform(Domain::Nlp, 8, 5);
    let pcfg = PipelineConfig::naspipe(4, n)
        .with_batch(32)
        .with_compute_threads(threads);
    let outcome = run_pipeline_with_subnets(&space, &pcfg, subnet_stream(&space, n))
        .expect("bench schedule runs at fixed batch");
    let tcfg = TrainConfig {
        dim,
        rows: 64,
        seed: crate::SEED,
        ..TrainConfig::default()
    }
    .with_threads(pcfg.compute_threads);
    let t0 = Instant::now();
    let replay = replay_training(&space, &outcome, &tcfg);
    let replay_subnets_per_s = n as f64 / t0.elapsed().as_secs_f64();

    let subnets = subnet_stream(&space, n);
    let t0 = Instant::now();
    let (threaded, _) =
        run_threaded_observed(&space, subnets, &tcfg, 4, 0).expect("threaded bench run succeeds");
    let threaded_makespan_us = t0.elapsed().as_micros() as u64;

    ComputeRun {
        threads,
        matmul,
        transposed,
        batched,
        replay_subnets: n,
        replay_subnets_per_s,
        replay_dim: dim,
        replay_final_hash: replay.final_hash,
        threaded_makespan_us,
        threaded_final_hash: threaded.final_hash,
    }
}

/// Runs the full benchmark matrix: one [`ComputeRun`] per entry of
/// `thread_counts`, with the naive reference measured once and shared.
///
/// `n` subnets feed the replay/runtime measurements.
///
/// # Panics
///
/// Panics if the schedule or any training run fails (fixed small batch,
/// so memory verdicts cannot fail).
#[must_use]
pub fn run_matrix(n: u64, thread_counts: &[usize]) -> ComputeMatrix {
    let naive = bench_naive();
    ComputeMatrix {
        host_parallelism: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        runs: thread_counts
            .iter()
            .map(|&t| run_at(t, n, &naive))
            .collect(),
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

/// Renders the per-pool-size kernel tables, end-to-end rates and the
/// cross-pool-size verdicts.
#[must_use]
pub fn render(matrix: &ComputeMatrix) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "host parallelism: {} (thread scaling is bounded by this)",
        matrix.host_parallelism
    );
    for run in &matrix.runs {
        let _ = writeln!(out, "\n--- pool size {} ---", run.threads);
        let _ = writeln!(
            out,
            "{:>16}  {:>12}  {:>12}  {:>8}  {:>8}",
            "matmul shape", "naive GF/s", "tiled GF/s", "speedup", "bitwise"
        );
        for s in &run.matmul {
            let _ = writeln!(
                out,
                "{:>16}  {:>12.2}  {:>12.2}  {:>7.2}x  {:>8}",
                format!("{}x{}x{}", s.m, s.k, s.n),
                s.naive_gflops,
                s.tiled_gflops,
                s.speedup,
                verdict(s.bitwise_equal)
            );
        }
        for t in &run.transposed {
            let _ = writeln!(
                out,
                "{:>16}  fused {:>8.2} GF/s  explicit-transpose {:>8.2} GF/s  bitwise {}",
                t.op,
                t.gflops,
                t.explicit_gflops,
                verdict(t.bitwise_equal)
            );
        }
        let b = &run.batched;
        let _ = writeln!(
            out,
            "batched {}x({}x{}x{}): one fan-out {:.2} GF/s, looped {:.2} GF/s, bitwise {}",
            b.count,
            b.m,
            b.k,
            b.n,
            b.batched_gflops,
            b.looped_gflops,
            verdict(b.bitwise_equal)
        );
        let _ = writeln!(
            out,
            "replay (dim {}): {:.1} subnets/s over {} subnets, final hash {:016x}",
            run.replay_dim, run.replay_subnets_per_s, run.replay_subnets, run.replay_final_hash
        );
        let _ = writeln!(
            out,
            "threaded runtime: makespan {} us, final hash {:016x}",
            run.threaded_makespan_us, run.threaded_final_hash
        );
    }
    let _ = writeln!(
        out,
        "\nbitwise vs reference: {}   invariant across pool sizes {:?}: {}",
        verdict(matrix.bitwise_ok()),
        matrix.runs.iter().map(|r| r.threads).collect::<Vec<_>>(),
        verdict(matrix.cross_thread_invariant())
    );
    out
}

/// Renders the machine-readable artifact (`BENCH_compute.json`, schema
/// 2): top-level verdicts plus a `runs` array with one entry per pool
/// size. Hashes are hex strings so generic numeric-field scanners (the
/// doctor's) skip them.
#[must_use]
pub fn render_json(matrix: &ComputeMatrix) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"bench\":\"compute\",\"schema\":2,\"host_parallelism\":{},\
         \"verdicts\":{{\"bitwise_equal\":{},\"cross_thread_invariant\":{}}},\"runs\":[",
        matrix.host_parallelism,
        matrix.bitwise_ok(),
        matrix.cross_thread_invariant()
    );
    for (ri, run) in matrix.runs.iter().enumerate() {
        if ri > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"threads\":{},\"matmul\":[", run.threads);
        for (i, s) in run.matmul.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"m\":{},\"k\":{},\"n\":{},\"naive_gflops\":{:.3},\"tiled_gflops\":{:.3},\
                 \"speedup\":{:.3},\"bitwise_equal\":{},\"out_hash\":\"{:016x}\"}}",
                s.m,
                s.k,
                s.n,
                s.naive_gflops,
                s.tiled_gflops,
                s.speedup,
                s.bitwise_equal,
                s.out_hash
            );
        }
        let _ = write!(out, "],\"transposed\":[");
        for (i, t) in run.transposed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"op\":\"{}\",\"gflops\":{:.3},\"explicit_gflops\":{:.3},\
                 \"bitwise_equal\":{},\"out_hash\":\"{:016x}\"}}",
                t.op, t.gflops, t.explicit_gflops, t.bitwise_equal, t.out_hash
            );
        }
        let b = &run.batched;
        let _ = write!(
            out,
            "],\"batched\":{{\"count\":{},\"m\":{},\"k\":{},\"n\":{},\"batched_gflops\":{:.3},\
             \"looped_gflops\":{:.3},\"bitwise_equal\":{}}}",
            b.count, b.m, b.k, b.n, b.batched_gflops, b.looped_gflops, b.bitwise_equal
        );
        let _ = write!(
            out,
            ",\"replay\":{{\"subnets\":{},\"dim\":{},\"subnets_per_s\":{:.3},\
             \"final_hash\":\"{:016x}\"}}",
            run.replay_subnets, run.replay_dim, run.replay_subnets_per_s, run.replay_final_hash
        );
        let _ = write!(
            out,
            ",\"threaded\":{{\"gpus\":4,\"makespan_us\":{},\"final_hash\":\"{:016x}\"}}}}",
            run.threaded_makespan_us, run.threaded_final_hash
        );
    }
    out.push_str("]}");
    out
}

/// Which tolerance band a compared metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckFamily {
    /// Isolated kernel throughput (GFLOP/s) — tight band, hard gate.
    Kernel,
    /// End-to-end wall-clock metrics (replay subnets/s, threaded
    /// makespan) — wide band; wall clock over threads is noisy.
    EndToEnd,
}

/// One baseline-vs-fresh comparison from [`check_against`].
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// Human-readable metric name (e.g. `matmul 256x256x256 tiled GF/s @1t`).
    pub metric: String,
    /// Tolerance family this row is judged under.
    pub family: CheckFamily,
    /// When true the metric improves downward (the threaded makespan)
    /// and regression means `fresh > baseline * (1 + threshold)`.
    pub lower_is_better: bool,
    /// Value recorded in the tracked baseline artifact.
    pub baseline: f64,
    /// Value measured by the fresh run.
    pub fresh: f64,
    /// `fresh / baseline`.
    pub ratio: f64,
    /// Whether the fresh value fell outside this family's band.
    pub regressed: bool,
}

/// A perf-regression check of a fresh [`ComputeMatrix`] against a
/// tracked schema-2 `BENCH_compute.json` baseline.
#[derive(Debug, Clone)]
pub struct BenchCheck {
    /// Allowed fractional slowdown for [`CheckFamily::Kernel`] rows.
    pub threshold: f64,
    /// Allowed fractional movement for [`CheckFamily::EndToEnd`] rows.
    pub e2e_threshold: f64,
    /// One row per metric present in both baseline and fresh matrix.
    pub rows: Vec<CheckRow>,
}

impl BenchCheck {
    /// Whether no compared metric regressed beyond its family's band.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| !r.regressed)
    }

    /// Whether no kernel-family metric regressed (the CI gate: kernel
    /// benches are isolated enough to fail hard on, end-to-end wall
    /// clock is advisory unless `--gate all` is requested).
    #[must_use]
    pub fn kernels_ok(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.family != CheckFamily::Kernel || !r.regressed)
    }

    /// The rows that regressed beyond their band.
    #[must_use]
    pub fn regressions(&self) -> Vec<&CheckRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }
}

/// Compares a fresh matrix against a tracked schema-2
/// `BENCH_compute.json`, run by run (matched on `threads`). Kernel
/// throughputs (tiled/fused/batched GFLOP/s) are judged under
/// `threshold`; the end-to-end metrics (replay subnets/s, threaded
/// makespan) under the wider `e2e_threshold`, with the makespan judged
/// lower-is-better. Faster than baseline is never an error (the
/// baseline only ratchets forward when re-recorded).
///
/// # Errors
///
/// Returns a message when `baseline_json` is not valid JSON, is the
/// legacy single-run schema (re-record it) or has no run in common with
/// the fresh matrix.
pub fn check_against(
    baseline_json: &str,
    fresh: &ComputeMatrix,
    threshold: f64,
    e2e_threshold: f64,
) -> Result<BenchCheck, String> {
    let doc = parse_json(baseline_json).map_err(|e| format!("baseline is not JSON: {e}"))?;
    let Some(runs) = doc.get("runs").and_then(JsonValue::as_arr) else {
        if doc.get("bench").and_then(JsonValue::as_str) == Some("compute")
            || doc.get("matmul").is_some()
        {
            return Err(
                "baseline is the legacy single-run BENCH_compute.json (schema 1, no \
                        \"runs\" array); re-record the per-thread-count schema-2 artifact with \
                        `BENCH_COMPUTE_JSON=BENCH_compute.json repro bench`"
                    .to_string(),
            );
        }
        return Err("baseline JSON has no \"runs\" array \
                    (is it a BENCH_compute.json artifact?)"
            .to_string());
    };

    let mut rows = Vec::new();
    let mut push = |metric: String,
                    family: CheckFamily,
                    lower_is_better: bool,
                    baseline: f64,
                    fresh_v: f64| {
        if baseline > 0.0 {
            let ratio = fresh_v / baseline;
            let band = match family {
                CheckFamily::Kernel => threshold,
                CheckFamily::EndToEnd => e2e_threshold,
            };
            let regressed = if lower_is_better {
                ratio > 1.0 + band
            } else {
                ratio < 1.0 - band
            };
            rows.push(CheckRow {
                metric,
                family,
                lower_is_better,
                baseline,
                fresh: fresh_v,
                ratio,
                regressed,
            });
        }
    };

    let num = |obj: &JsonValue, key: &str| obj.get(key).and_then(JsonValue::as_f64);
    for base_run in runs {
        let Some(threads) = num(base_run, "threads") else {
            continue;
        };
        let t = threads as usize;
        let Some(fresh_run) = fresh.runs.iter().find(|r| r.threads == t) else {
            continue;
        };
        let items = |key: &str| base_run.get(key).and_then(JsonValue::as_arr).unwrap_or(&[]);
        for obj in items("matmul") {
            let (Some(m), Some(k), Some(n), Some(base)) = (
                num(obj, "m"),
                num(obj, "k"),
                num(obj, "n"),
                num(obj, "tiled_gflops"),
            ) else {
                continue;
            };
            if let Some(s) = fresh_run
                .matmul
                .iter()
                .find(|s| (s.m, s.k, s.n) == (m as usize, k as usize, n as usize))
            {
                push(
                    format!("matmul {}x{}x{} tiled GF/s @{t}t", s.m, s.k, s.n),
                    CheckFamily::Kernel,
                    false,
                    base,
                    s.tiled_gflops,
                );
            }
        }
        for obj in items("transposed") {
            let Some(base) = num(obj, "gflops") else {
                continue;
            };
            let op = obj.get("op").and_then(JsonValue::as_str);
            if let Some(tr) = fresh_run.transposed.iter().find(|tr| op == Some(tr.op)) {
                push(
                    format!("{} fused GF/s @{t}t", tr.op),
                    CheckFamily::Kernel,
                    false,
                    base,
                    tr.gflops,
                );
            }
        }
        let field = |obj: &str, key: &str| base_run.get(obj).and_then(|o| num(o, key));
        if let Some(base) = field("batched", "batched_gflops") {
            push(
                format!("matmul batched GF/s @{t}t"),
                CheckFamily::Kernel,
                false,
                base,
                fresh_run.batched.batched_gflops,
            );
        }
        if let Some(base) = field("replay", "subnets_per_s") {
            push(
                format!("replay subnets/s @{t}t"),
                CheckFamily::EndToEnd,
                false,
                base,
                fresh_run.replay_subnets_per_s,
            );
        }
        if let Some(base) = field("threaded", "makespan_us") {
            push(
                format!("threaded makespan us @{t}t"),
                CheckFamily::EndToEnd,
                true,
                base,
                fresh_run.threaded_makespan_us as f64,
            );
        }
    }

    if rows.is_empty() {
        return Err(
            "baseline \"runs\" share no thread count or metric with this run \
                    (is it a schema-2 BENCH_compute.json artifact?)"
                .to_string(),
        );
    }
    Ok(BenchCheck {
        threshold,
        e2e_threshold,
        rows,
    })
}

/// Renders the regression-check table.
#[must_use]
pub fn render_check(check: &BenchCheck) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>32}  {:>10}  {:>10}  {:>7}  verdict (kernel band {:.0}%, e2e band {:.0}%)",
        "metric",
        "baseline",
        "fresh",
        "ratio",
        check.threshold * 100.0,
        check.e2e_threshold * 100.0
    );
    for r in &check.rows {
        let _ = writeln!(
            out,
            "{:>32}  {:>10.2}  {:>10.2}  {:>6.2}x  {}{}",
            r.metric,
            r.baseline,
            r.fresh,
            r.ratio,
            if r.regressed { "REGRESSED" } else { "ok" },
            if r.lower_is_better {
                " (lower is better)"
            } else {
                ""
            }
        );
    }
    let _ = writeln!(
        out,
        "bench-check: {} ({} metric(s), {} regression(s), kernels {})",
        verdict(check.ok()),
        check.rows.len(),
        check.regressions().len(),
        verdict(check.kernels_ok())
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabricated_run(threads: usize) -> ComputeRun {
        ComputeRun {
            threads,
            matmul: vec![
                MatmulBench {
                    m: 256,
                    k: 256,
                    n: 256,
                    naive_gflops: 2.0,
                    tiled_gflops: 10.0 * threads as f64,
                    speedup: 5.0 * threads as f64,
                    bitwise_equal: true,
                    out_hash: 0x1234_5678_9abc_def0,
                },
                MatmulBench {
                    m: 64,
                    k: 64,
                    n: 64,
                    naive_gflops: 1.0,
                    tiled_gflops: 4.0,
                    speedup: 4.0,
                    bitwise_equal: true,
                    out_hash: 0x0fed_cba9_8765_4321,
                },
            ],
            transposed: vec![TransposedBench {
                op: "matmul_t",
                gflops: 8.0,
                explicit_gflops: 4.0,
                bitwise_equal: true,
                out_hash: 0x1111_2222_3333_4444,
            }],
            batched: BatchedBench {
                count: 16,
                m: 64,
                k: 128,
                n: 128,
                batched_gflops: 12.0,
                looped_gflops: 9.0,
                bitwise_equal: true,
            },
            replay_subnets: 24,
            replay_subnets_per_s: 50.0,
            replay_dim: 128,
            replay_final_hash: 0xdead_beef_dead_beef,
            threaded_makespan_us: 1234,
            threaded_final_hash: 0xdead_beef_dead_beef,
        }
    }

    fn fabricated_matrix() -> ComputeMatrix {
        ComputeMatrix {
            host_parallelism: 1,
            runs: vec![fabricated_run(1), fabricated_run(4), fabricated_run(8)],
        }
    }

    #[test]
    fn json_is_balanced_and_carries_verdicts() {
        let matrix = fabricated_matrix();
        assert!(matrix.all_ok());
        assert_eq!(matrix.square_speedup(4, 256), Some(20.0));
        let json = render_json(&matrix);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"schema\":2"));
        assert!(json.contains("\"host_parallelism\":1"));
        assert!(json.contains("\"cross_thread_invariant\":true"));
        assert!(json.contains("\"final_hash\":\"deadbeefdeadbeef\""));
        assert_eq!(json.matches("\"threads\":").count(), 3);
        let text = render(&matrix);
        assert!(text.contains("pool size 8"));
        assert!(text.contains("invariant across pool sizes"));
    }

    #[test]
    fn cross_thread_divergence_fails_the_matrix() {
        let mut matrix = fabricated_matrix();
        assert!(matrix.cross_thread_invariant());
        matrix.runs[2].matmul[0].out_hash ^= 1;
        assert!(!matrix.cross_thread_invariant());
        assert!(!matrix.all_ok());
        let mut matrix = fabricated_matrix();
        matrix.runs[1].replay_final_hash ^= 1;
        assert!(!matrix.cross_thread_invariant());
        // A threaded hash diverging from its own run's replay hash is a
        // within-run bitwise failure.
        let mut matrix = fabricated_matrix();
        matrix.runs[0].threaded_final_hash ^= 1;
        assert!(!matrix.bitwise_ok());
    }

    #[test]
    fn check_passes_against_own_baseline() {
        // A matrix compared against the artifact it itself rendered can
        // never regress: every ratio is 1.0.
        let matrix = fabricated_matrix();
        let check = check_against(&render_json(&matrix), &matrix, 0.15, 0.35).unwrap();
        assert!(check.ok());
        assert!(check.kernels_ok());
        // Per run: 2 shapes + 1 transposed + batched + replay + makespan.
        assert_eq!(check.rows.len(), 6 * matrix.runs.len());
        assert!(check.rows.iter().all(|r| (r.ratio - 1.0).abs() < 1e-9));
    }

    #[test]
    fn check_fails_on_injected_regression() {
        // Inject a 20% slowdown on every kernel throughput: with a 15%
        // kernel band each kernel metric must flag, and the check fails.
        let baseline = fabricated_matrix();
        let mut slow = baseline.clone();
        for run in &mut slow.runs {
            for s in &mut run.matmul {
                s.tiled_gflops *= 0.8;
            }
            for t in &mut run.transposed {
                t.gflops *= 0.8;
            }
            run.batched.batched_gflops *= 0.8;
        }
        let check = check_against(&render_json(&baseline), &slow, 0.15, 0.35).unwrap();
        assert!(!check.ok());
        assert!(!check.kernels_ok());
        assert_eq!(check.regressions().len(), 4 * baseline.runs.len());
        let text = render_check(&check);
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("bench-check: FAIL"));

        // A 10% slowdown stays inside the 15% kernel band.
        let mut mild = baseline.clone();
        for run in &mut mild.runs {
            for s in &mut run.matmul {
                s.tiled_gflops *= 0.9;
            }
        }
        assert!(check_against(&render_json(&baseline), &mild, 0.15, 0.35)
            .unwrap()
            .ok());

        // Faster than baseline is never an error.
        let mut fast = baseline.clone();
        for run in &mut fast.runs {
            run.replay_subnets_per_s *= 3.0;
        }
        assert!(check_against(&render_json(&baseline), &fast, 0.15, 0.35)
            .unwrap()
            .ok());
    }

    #[test]
    fn e2e_band_is_wider_and_makespan_judges_downward() {
        let baseline = fabricated_matrix();
        // Replay 25% slower: outside a 15% band but inside the 35% e2e
        // band, so only the wide family saves it.
        let mut slow = baseline.clone();
        for run in &mut slow.runs {
            run.replay_subnets_per_s *= 0.75;
        }
        let check = check_against(&render_json(&baseline), &slow, 0.15, 0.35).unwrap();
        assert!(check.ok(), "25% e2e slowdown must sit inside the 35% band");
        // 50% slower replay breaches even the wide band — but the
        // kernel gate still passes (it is an e2e metric).
        for run in &mut slow.runs {
            run.replay_subnets_per_s *= 0.6;
        }
        let check = check_against(&render_json(&baseline), &slow, 0.15, 0.35).unwrap();
        assert!(!check.ok());
        assert!(check.kernels_ok());
        // Makespan is lower-is-better: halving it must never regress,
        // doubling it must.
        let mut faster = baseline.clone();
        for run in &mut faster.runs {
            run.threaded_makespan_us /= 2;
        }
        assert!(check_against(&render_json(&baseline), &faster, 0.15, 0.35)
            .unwrap()
            .ok());
        let mut slower = baseline.clone();
        for run in &mut slower.runs {
            run.threaded_makespan_us *= 2;
        }
        let check = check_against(&render_json(&baseline), &slower, 0.15, 0.35).unwrap();
        assert!(!check.ok());
        assert!(check.kernels_ok());
        assert!(check.regressions()[0].lower_is_better);
    }

    #[test]
    fn check_rejects_legacy_and_unrelated_json() {
        let matrix = fabricated_matrix();
        // The pre-matrix schema-1 artifact: top-level matmul, no runs.
        let legacy = "{\"bench\":\"compute\",\"threads\":1,\"matmul\":[{\"m\":256,\"k\":256,\
                      \"n\":256,\"tiled_gflops\":42.8}]}";
        let err = check_against(legacy, &matrix, 0.15, 0.35).unwrap_err();
        assert!(err.contains("legacy"), "got: {err}");
        assert!(err.contains("repro bench"), "got: {err}");
        assert!(check_against("{\"schema\":4}", &matrix, 0.15, 0.35).is_err());
        assert!(check_against("not json at all", &matrix, 0.15, 0.35).is_err());
        // Runs present but no thread count in common.
        let mut other = matrix.clone();
        for (i, run) in other.runs.iter_mut().enumerate() {
            run.threads = 16 + i;
        }
        assert!(check_against(&render_json(&other), &matrix, 0.15, 0.35).is_err());
    }

    #[test]
    fn check_parses_the_tracked_artifact_format() {
        // The parsing must survive the exact nesting render_json emits
        // (and the tracked artifact therefore uses): runs is an array of
        // objects that themselves hold arrays and objects.
        let matrix = fabricated_matrix();
        let check = check_against(&render_json(&matrix), &matrix, 0.15, 0.35).unwrap();
        let at = |t: usize| -> Vec<&CheckRow> {
            let tag = format!("@{t}t");
            check
                .rows
                .iter()
                .filter(|r| r.metric.ends_with(&tag))
                .collect()
        };
        for t in [1, 4, 8] {
            assert_eq!(at(t).len(), 6, "run with {t} threads");
        }
        let four = at(4);
        let matmul_rows = four.iter().filter(|r| r.metric.contains(" tiled GF/s"));
        assert_eq!(matmul_rows.count(), 2);
        let value = |rows: &[&CheckRow], prefix: &str| {
            rows.iter()
                .find(|r| r.metric.starts_with(prefix))
                .unwrap()
                .baseline
        };
        assert_eq!(value(&four, "replay subnets/s"), 50.0);
        assert_eq!(value(&at(8), "threaded makespan us"), 1234.0);
    }

    /// The matrix a fresh run would produce if it measured exactly the
    /// values recorded in a schema-2 artifact.
    fn matrix_recorded_in(artifact: &JsonValue) -> ComputeMatrix {
        let num = |o: &JsonValue, k: &str| o.get(k).and_then(JsonValue::as_f64).unwrap();
        let arr = |o: &JsonValue, k: &str| o.get(k).and_then(JsonValue::as_arr).unwrap().to_vec();
        let runs = arr(artifact, "runs")
            .iter()
            .map(|run| {
                let mut r = fabricated_run(num(run, "threads") as usize);
                let template = r.matmul[0].clone();
                r.matmul = arr(run, "matmul")
                    .iter()
                    .map(|o| MatmulBench {
                        m: num(o, "m") as usize,
                        k: num(o, "k") as usize,
                        n: num(o, "n") as usize,
                        tiled_gflops: num(o, "tiled_gflops"),
                        ..template.clone()
                    })
                    .collect();
                let template = r.transposed[0].clone();
                r.transposed = arr(run, "transposed")
                    .iter()
                    .map(|o| TransposedBench {
                        op: ["matmul_t", "t_matmul"]
                            .into_iter()
                            .find(|&op| o.get("op").and_then(JsonValue::as_str) == Some(op))
                            .unwrap(),
                        gflops: num(o, "gflops"),
                        ..template.clone()
                    })
                    .collect();
                r.batched.batched_gflops = num(run.get("batched").unwrap(), "batched_gflops");
                r.replay_subnets_per_s = num(run.get("replay").unwrap(), "subnets_per_s");
                r.threaded_makespan_us = num(run.get("threaded").unwrap(), "makespan_us") as u64;
                r
            })
            .collect();
        ComputeMatrix {
            host_parallelism: 1,
            runs,
        }
    }

    #[test]
    fn committed_artifact_checks_clean_against_itself() {
        let text = include_str!("../../../../BENCH_compute.json");
        let recorded = matrix_recorded_in(&parse_json(text).unwrap());
        let check = check_against(text, &recorded, 0.15, 0.35).unwrap();
        let expected: usize = recorded
            .runs
            .iter()
            .map(|r| r.matmul.len() + r.transposed.len() + 3)
            .sum();
        assert_eq!(check.rows.len(), expected);
        assert!(check.regressions().is_empty(), "{}", render_check(&check));
    }

    #[test]
    fn kernel_bench_verdicts_hold_on_small_shapes() {
        let refs: Vec<NaiveRef> = [(48usize, 33usize, 40usize)]
            .iter()
            .map(|&(m, k, n)| {
                let a = operand(m, k, 0.0);
                let b = operand(k, n, 1.0);
                NaiveRef {
                    m,
                    k,
                    n,
                    gflops: 1.0,
                    out: a.matmul_naive(&b),
                }
            })
            .collect();
        let rows = bench_shapes(&refs);
        assert!(rows[0].bitwise_equal);
        assert!(rows[0].tiled_gflops > 0.0);
        for t in bench_transposed(40) {
            assert!(t.bitwise_equal, "{} diverged", t.op);
        }
        let b = bench_batched(4, 16, 24, 20);
        assert!(b.bitwise_equal);
        assert!(b.batched_gflops > 0.0 && b.looped_gflops > 0.0);
    }
}
