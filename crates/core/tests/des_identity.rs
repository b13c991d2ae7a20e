//! Identity pins of the DES CSP engine at sizes the golden corpus does
//! not reach (16 GPUs, hundreds of subnets, jitter, faults).
//!
//! Each pinned run is digested field by field — every span (id, stage,
//! kind, subnet, start, end, cause), every task record, the report with
//! the scheduler's `calls`/`scanned` zeroed, and the observability
//! report — and compared, together with `scheduler_stats.hits`, against
//! constants recorded from the reference engine. `calls` and `scanned`
//! count scheduler evaluations, which the engine may skip when a stage's
//! inputs have not changed, so they are not part of the identity.
//!
//! When a deliberate schedule change moves a digest, re-derive the
//! constants from the printed values and say why in the change log.

use naspipe_core::config::PipelineConfig;
use naspipe_core::pipeline::{run_pipeline_with_subnets, PipelineOutcome};
use naspipe_core::scheduler::SchedulerStats;
use naspipe_obs::CauseKind;
use naspipe_supernet::sampler::{ExplorationStrategy, UniformSampler};
use naspipe_supernet::space::SearchSpace;

/// FNV-1a over 64-bit words and byte strings.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Digests of one run's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    spans: u64,
    tasks: u64,
    report: u64,
    obs: u64,
    hits: u64,
}

fn cause_code(kind: CauseKind) -> (u64, u64) {
    match kind {
        CauseKind::Injection => (1, 0),
        CauseKind::ActivationArrival => (2, 0),
        CauseKind::GradientArrival => (3, 0),
        CauseKind::CspWriterCompletion { writer } => (4, writer),
        CauseKind::FetchCompletion => (5, 0),
        CauseKind::RecoveryReplay { incarnation } => (6, u64::from(incarnation)),
    }
}

fn pin(out: &PipelineOutcome) -> Pin {
    let mut spans = Digest::new();
    spans.word(out.spans.len() as u64);
    for s in out.spans.spans() {
        spans.word(s.id.0);
        spans.word(u64::from(s.stage));
        spans.word(s.kind as u64);
        spans.word(s.subnet.map_or(u64::MAX, |n| n));
        spans.word(s.start_us);
        spans.word(s.end_us);
        match s.cause {
            Some(edge) => {
                let (kind, writer) = cause_code(edge.kind);
                spans.word(edge.src.0);
                spans.word(kind);
                spans.word(writer);
            }
            None => spans.word(u64::MAX),
        }
    }
    let mut tasks = Digest::new();
    tasks.word(out.tasks.len() as u64);
    for t in &out.tasks {
        tasks.word(t.start.as_us());
        tasks.word(t.end.as_us());
        tasks.word(u64::from(t.kind == naspipe_core::task::TaskKind::Backward));
        tasks.word(t.subnet.0);
        tasks.word(u64::from(t.stage.0));
        tasks.word(t.blocks.start as u64);
        tasks.word(t.blocks.end as u64);
    }
    let mut report = out.report.clone();
    let hits = report.scheduler_stats.hits;
    report.scheduler_stats = SchedulerStats {
        hits,
        ..SchedulerStats::default()
    };
    let mut rd = Digest::new();
    rd.bytes(format!("{report:?}").as_bytes());
    let mut od = Digest::new();
    od.bytes(format!("{:?}", out.obs).as_bytes());
    Pin {
        spans: spans.0,
        tasks: tasks.0,
        report: rd.0,
        obs: od.0,
        hits,
    }
}

fn run(space: &SearchSpace, cfg: &PipelineConfig) -> PipelineOutcome {
    let subnets = UniformSampler::new(space, cfg.seed).take_subnets(cfg.num_subnets as usize);
    run_pipeline_with_subnets(space, cfg, subnets).expect("run succeeds")
}

fn check(name: &str, space: &SearchSpace, cfg: &PipelineConfig, want: Pin) {
    let got = pin(&run(space, cfg));
    assert_eq!(got, want, "{name}: DES outputs moved (got {got:#x?})");
}

#[test]
fn nlp_c2_300_subnets_16_gpus_is_pinned() {
    check(
        "nlp_c2 300x16",
        &SearchSpace::nlp_c2(),
        &PipelineConfig::naspipe(16, 300).with_seed(1),
        Pin {
            spans: 0x94e1a0024b09dd58,
            tasks: 0xe5f4c6c76c0c5236,
            report: 0x3916e5a759f7359c,
            obs: 0x7256ace9b6acc202,
            hits: 5443,
        },
    );
}

#[test]
fn nlp_c2_300_subnets_16_gpus_with_jitter_is_pinned() {
    check(
        "nlp_c2 300x16 jitter 0.2",
        &SearchSpace::nlp_c2(),
        &PipelineConfig::naspipe(16, 300)
            .with_seed(1)
            .with_jitter(0.2),
        Pin {
            spans: 0x98d7928ef04047d2,
            tasks: 0x33437ae2d18864dd,
            report: 0x41b12c42d3f10428,
            obs: 0x52730e64ea4dd41c,
            hits: 5438,
        },
    );
}

#[test]
fn cv_c2_8_gpus_with_faults_is_pinned() {
    check(
        "cv_c2 200x8 faults 0.05",
        &SearchSpace::cv_c2(),
        &PipelineConfig::naspipe(8, 200)
            .with_seed(1)
            .with_fault_rate(0.05),
        Pin {
            spans: 0xf70e0bd5250e236b,
            tasks: 0x07585745995005dd,
            report: 0xf835e25ceb2657da,
            obs: 0x3f5ab75c7beeb08f,
            hits: 1975,
        },
    );
}

/// A blocked stage is not re-polled: the scheduler is evaluated only
/// when a stage's queue, the finished sets it reads, or the subnet table
/// changed, which bounds evaluations by a small multiple of the tasks.
#[test]
fn blocked_stages_are_not_polled() {
    let space = SearchSpace::nlp_c2();
    let out = run(&space, &PipelineConfig::naspipe(16, 500).with_seed(1));
    let calls = out.report.scheduler_stats.calls;
    let tasks = out.tasks.len() as u64;
    assert!(
        calls <= 10 * tasks,
        "{calls} scheduler evaluations for {tasks} tasks ({:.1} per task)",
        calls as f64 / tasks as f64
    );
}
