//! Per-task span tracing with causal edges.
//!
//! Where [`crate::metrics`] aggregates (counters and histograms), this
//! module records *timelines*: one [`Span`] per unit of runtime work —
//! forward/backward execution, parameter fetch/prefetch, eviction,
//! activation recomputation, checkpoint, restart, replay — each carrying
//! the stage it ran on, the subnet it belongs to, and a **causal edge**
//! naming *why it started when it did*: the predecessor stage's
//! activation arrival, a shared-layer writer's backward completion (the
//! CSP admission rule firing), a cache fetch completing, or a recovery
//! replay.
//!
//! Emission mirrors the [`Recorder`](crate::Recorder) pattern: runtimes
//! talk to a [`Tracer`] ([`SpanTracer`] buffers in memory, [`NullTracer`]
//! drops everything at zero cost); per-worker tracers from the threaded
//! runtime get distinct id namespaces and their buffers merge into one
//! [`SpanTrace`] after join. Two consumers sit downstream: the Chrome
//! trace-event exporter ([`crate::chrome`], loadable in Perfetto) and the
//! critical-path analyzer ([`crate::critical_path`]).

use std::fmt;

/// Identifier of one span, unique within a [`SpanTrace`].
///
/// `SpanId(0)` is the reserved *external* id: [`NullTracer`] returns it
/// for every emission, and causal edges with `src == SpanId(0)` point
/// outside the trace (e.g. the initial injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The reserved id for events outside the trace.
    pub const EXTERNAL: SpanId = SpanId(0);

    /// Whether this id points outside the trace.
    pub fn is_external(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// What kind of work a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A forward task executing on a stage.
    Forward,
    /// A backward task executing on a stage.
    Backward,
    /// Hoisted activation recomputation ahead of the backward wave.
    Recompute,
    /// A synchronous parameter fetch (cache miss) over PCIe.
    Fetch,
    /// An asynchronous parameter prefetch over PCIe.
    Prefetch,
    /// A layer eviction GPU -> CPU (instantaneous).
    Evict,
    /// A stage snapshotting its state at a CSP watermark.
    Checkpoint,
    /// The supervisor respawning a stage after a failure.
    Restart,
    /// A task re-executed because a rollback discarded its effect.
    Replay,
}

impl SpanKind {
    /// Short lowercase name, stable across export/parse.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Forward => "forward",
            SpanKind::Backward => "backward",
            SpanKind::Recompute => "recompute",
            SpanKind::Fetch => "fetch",
            SpanKind::Prefetch => "prefetch",
            SpanKind::Evict => "evict",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Restart => "restart",
            SpanKind::Replay => "replay",
        }
    }

    /// Parses [`name`](Self::name) back.
    pub fn from_name(name: &str) -> Option<SpanKind> {
        Some(match name {
            "forward" => SpanKind::Forward,
            "backward" => SpanKind::Backward,
            "recompute" => SpanKind::Recompute,
            "fetch" => SpanKind::Fetch,
            "prefetch" => SpanKind::Prefetch,
            "evict" => SpanKind::Evict,
            "checkpoint" => SpanKind::Checkpoint,
            "restart" => SpanKind::Restart,
            "replay" => SpanKind::Replay,
            _ => return None,
        })
    }

    /// Whether spans of this kind occupy the stage's compute resource
    /// (and therefore serialize on it). Fetch/prefetch occupy the PCIe
    /// link; evict/checkpoint/restart are bookkeeping marks.
    pub fn is_compute(self) -> bool {
        matches!(
            self,
            SpanKind::Forward | SpanKind::Backward | SpanKind::Recompute | SpanKind::Replay
        )
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a span started when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CauseKind {
    /// First-stage forward: the subnet was injected into the pipeline.
    Injection,
    /// The predecessor stage's forward output (activation) arrived.
    ActivationArrival,
    /// The successor stage's backward output (gradient) arrived.
    GradientArrival,
    /// The CSP admission rule released this forward: the named earlier
    /// subnet — the last unfinished sharer of a layer this task touches —
    /// completed its backward write.
    CspWriterCompletion {
        /// Sequence id of the earlier subnet whose write released us.
        writer: u64,
    },
    /// A synchronous cache fetch (or pending prefetch) completed.
    FetchCompletion,
    /// The task re-ran because a recovery rolled its effect back.
    RecoveryReplay {
        /// Which pipeline incarnation replays it (1 = first restart).
        incarnation: u32,
    },
}

impl CauseKind {
    /// Short kebab-case name, stable across export/parse.
    pub fn name(self) -> &'static str {
        match self {
            CauseKind::Injection => "injection",
            CauseKind::ActivationArrival => "activation-arrival",
            CauseKind::GradientArrival => "gradient-arrival",
            CauseKind::CspWriterCompletion { .. } => "csp-writer-completion",
            CauseKind::FetchCompletion => "fetch-completion",
            CauseKind::RecoveryReplay { .. } => "recovery-replay",
        }
    }
}

impl fmt::Display for CauseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CauseKind::CspWriterCompletion { writer } => {
                write!(f, "csp-writer-completion(SN{writer})")
            }
            CauseKind::RecoveryReplay { incarnation } => {
                write!(f, "recovery-replay(incarnation {incarnation})")
            }
            other => f.write_str(other.name()),
        }
    }
}

/// A causal edge: the span (and reason) that released this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CausalEdge {
    /// The releasing span ([`SpanId::EXTERNAL`] when outside the trace).
    pub src: SpanId,
    /// Why the edge exists.
    pub kind: CauseKind,
}

/// One traced unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the trace.
    pub id: SpanId,
    /// Pipeline stage the work ran on.
    pub stage: u32,
    /// What the work was.
    pub kind: SpanKind,
    /// The subnet it belongs to (`None` for e.g. evictions).
    pub subnet: Option<u64>,
    /// Start, in microseconds (simulated or wall-clock since run start).
    pub start_us: u64,
    /// End, in microseconds; `end_us == start_us` marks an instant.
    pub end_us: u64,
    /// Why the span started when it did, if known.
    pub cause: Option<CausalEdge>,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Human label, e.g. `SN3.forward@P1`.
    pub fn label(&self) -> String {
        match self.subnet {
            Some(s) => format!("SN{s}.{}@P{}", self.kind, self.stage),
            None => format!("{}@P{}", self.kind, self.stage),
        }
    }
}

/// A span minus its id — what emission sites build; the tracer assigns
/// the id (so causal edges can reference earlier emissions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanDraft {
    /// Pipeline stage the work ran on.
    pub stage: u32,
    /// What the work was.
    pub kind: SpanKind,
    /// The subnet it belongs to.
    pub subnet: Option<u64>,
    /// Start microseconds.
    pub start_us: u64,
    /// End microseconds.
    pub end_us: u64,
    /// Why the span started when it did.
    pub cause: Option<CausalEdge>,
}

impl SpanDraft {
    /// A draft covering `[start_us, end_us]` of `kind` work on `stage`.
    pub fn new(stage: u32, kind: SpanKind, start_us: u64, end_us: u64) -> Self {
        SpanDraft {
            stage,
            kind,
            subnet: None,
            start_us,
            end_us,
            cause: None,
        }
    }

    /// Attaches the subnet.
    pub fn subnet(mut self, subnet: u64) -> Self {
        self.subnet = Some(subnet);
        self
    }

    /// Attaches the causal edge.
    pub fn caused_by(mut self, src: SpanId, kind: CauseKind) -> Self {
        self.cause = Some(CausalEdge { src, kind });
        self
    }
}

/// Sink for spans. Mirrors [`Recorder`](crate::Recorder): emission sites
/// stay compiled against the trait, and tests or benchmark paths
/// substitute [`NullTracer`] to prove tracing never perturbs a run.
pub trait Tracer: Send {
    /// Records one span and returns its assigned id (so later spans can
    /// name it in a causal edge). [`NullTracer`] returns
    /// [`SpanId::EXTERNAL`].
    fn emit(&mut self, draft: SpanDraft) -> SpanId;

    /// Whether emissions are recorded (`false` lets hot paths skip
    /// building drafts).
    fn enabled(&self) -> bool {
        true
    }

    /// Takes the buffered spans, leaving the tracer empty.
    fn take(&mut self) -> SpanTrace {
        SpanTrace::default()
    }
}

/// A tracer that drops everything at zero cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn emit(&mut self, _draft: SpanDraft) -> SpanId {
        SpanId::EXTERNAL
    }

    fn enabled(&self) -> bool {
        false
    }
}

/// Bits reserved for the per-emission counter within a [`SpanTracer`]
/// id; the namespace occupies the bits above.
const NAMESPACE_SHIFT: u32 = 40;

/// The in-memory [`Tracer`]: an append-only span buffer.
///
/// The threaded runtime gives each stage worker its own tracer under a
/// distinct *namespace* so ids never collide across workers, then merges
/// the buffers after join — recording never contends on a lock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTracer {
    namespace: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanTracer {
    /// A tracer in namespace 0 (ids 1, 2, 3, ...).
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracer whose ids live in `namespace` (`namespace << 40 | seq`,
    /// never colliding with another namespace's ids).
    pub fn with_namespace(namespace: u64) -> Self {
        SpanTracer {
            namespace,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

impl Tracer for SpanTracer {
    fn emit(&mut self, draft: SpanDraft) -> SpanId {
        self.next += 1;
        let id = SpanId((self.namespace << NAMESPACE_SHIFT) | self.next);
        self.spans.push(Span {
            id,
            stage: draft.stage,
            kind: draft.kind,
            subnet: draft.subnet,
            start_us: draft.start_us,
            end_us: draft.end_us,
            cause: draft.cause,
        });
        id
    }

    fn take(&mut self) -> SpanTrace {
        SpanTrace::from_spans(std::mem::take(&mut self.spans))
    }
}

/// An immutable, time-ordered collection of spans — the unit the
/// exporter and analyzer consume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTrace {
    spans: Vec<Span>,
    // Positions in `spans`, ordered by `(id, position)`: the lookup index
    // of `get`. A pure function of `spans`, rebuilt by `normalize`, so
    // equality and round-trips see only the spans.
    by_id: Vec<u32>,
}

impl SpanTrace {
    /// Builds a trace from raw spans (sorting them into canonical
    /// `(start, id)` order).
    pub fn from_spans(spans: Vec<Span>) -> Self {
        let mut trace = SpanTrace {
            spans,
            by_id: Vec::new(),
        };
        trace.normalize();
        trace
    }

    fn normalize(&mut self) {
        self.spans.sort_by_key(|s| (s.start_us, s.end_us, s.id));
        let spans = &self.spans;
        let len = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        let mut by_id: Vec<u32> = (0..len).collect();
        by_id.sort_unstable_by_key(|&i| (spans[i as usize].id, i));
        self.by_id = by_id;
    }

    /// All spans in `(start, end, id)` order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The span with `id`, if present (the first in time order should
    /// ids repeat). Logarithmic in the trace length.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        let at = self
            .by_id
            .partition_point(|&i| self.spans[i as usize].id < id);
        self.by_id
            .get(at)
            .map(|&i| &self.spans[i as usize])
            .filter(|s| s.id == id)
    }

    /// Spans of one kind, in time order.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Spans on one stage, in time order.
    pub fn on_stage(&self, stage: u32) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.stage == stage)
    }

    /// Number of stages spanned (max stage index + 1; 0 when empty).
    pub fn num_stages(&self) -> u32 {
        self.spans.iter().map(|s| s.stage + 1).max().unwrap_or(0)
    }

    /// Latest end over the *compute* spans — the schedule makespan. The
    /// trailing edge of an async prefetch does not extend a run.
    pub fn makespan_us(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind.is_compute())
            .map(|s| s.end_us)
            .max()
            .unwrap_or(0)
    }

    /// Folds `other`'s spans into `self` (per-worker buffer merge).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the two traces share a span id — merge
    /// only tracers created under distinct namespaces.
    pub fn merge(&mut self, other: SpanTrace) {
        #[cfg(debug_assertions)]
        {
            use std::collections::BTreeSet;
            let mine: BTreeSet<SpanId> = self.spans.iter().map(|s| s.id).collect();
            for s in &other.spans {
                debug_assert!(!mine.contains(&s.id), "span id {} collides in merge", s.id);
            }
        }
        self.spans.extend(other.spans);
        self.normalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_assigns_sequential_ids_and_take_sorts() {
        let mut t = SpanTracer::new();
        let a = t.emit(SpanDraft::new(0, SpanKind::Forward, 10, 20).subnet(0));
        let b = t.emit(
            SpanDraft::new(1, SpanKind::Forward, 0, 5)
                .subnet(0)
                .caused_by(a, CauseKind::ActivationArrival),
        );
        assert_eq!(a, SpanId(1));
        assert_eq!(b, SpanId(2));
        let trace = t.take();
        assert_eq!(trace.len(), 2);
        // Sorted by start time, not emission order.
        assert_eq!(trace.spans()[0].id, b);
        assert_eq!(trace.get(a).unwrap().end_us, 20);
        assert!(t.is_empty(), "take drains the buffer");
    }

    #[test]
    fn get_finds_every_span_and_only_those() {
        let mut t = SpanTracer::new();
        // Later emissions start earlier, so id order and time order differ.
        let ids: Vec<SpanId> = (0..50u64)
            .map(|i| t.emit(SpanDraft::new(0, SpanKind::Forward, 100 - i, 101 - i).subnet(i)))
            .collect();
        let mut trace = t.take();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(trace.get(id).unwrap().subnet, Some(i as u64));
        }
        assert!(trace.get(SpanId::EXTERNAL).is_none());
        assert!(trace.get(SpanId(51)).is_none());
        // A merge re-indexes the combined spans.
        let mut other = SpanTracer::with_namespace(1);
        let late = other.emit(SpanDraft::new(1, SpanKind::Backward, 0, 1));
        trace.merge(other.take());
        assert_eq!(trace.get(late).unwrap().stage, 1);
        assert_eq!(trace.get(ids[7]).unwrap().subnet, Some(7));
    }

    #[test]
    fn null_tracer_returns_external() {
        let mut t = NullTracer;
        assert!(!t.enabled());
        let id = t.emit(SpanDraft::new(0, SpanKind::Forward, 0, 1));
        assert!(id.is_external());
        assert!(t.take().is_empty());
    }

    #[test]
    fn namespaces_do_not_collide_and_merge_interleaves() {
        let mut a = SpanTracer::with_namespace(1);
        let mut b = SpanTracer::with_namespace(2);
        let ia = a.emit(SpanDraft::new(0, SpanKind::Forward, 5, 9));
        let ib = b.emit(SpanDraft::new(1, SpanKind::Backward, 0, 4));
        assert_ne!(ia, ib);
        let mut trace = a.take();
        trace.merge(b.take());
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.spans()[0].id, ib, "merged trace re-sorts by start");
        assert_eq!(trace.num_stages(), 2);
    }

    #[test]
    fn makespan_ignores_io_tails() {
        let trace = SpanTrace::from_spans(vec![
            Span {
                id: SpanId(1),
                stage: 0,
                kind: SpanKind::Forward,
                subnet: Some(0),
                start_us: 0,
                end_us: 10,
                cause: None,
            },
            Span {
                id: SpanId(2),
                stage: 0,
                kind: SpanKind::Prefetch,
                subnet: Some(1),
                start_us: 5,
                end_us: 50,
                cause: None,
            },
        ]);
        assert_eq!(trace.makespan_us(), 10);
    }

    #[test]
    fn labels_and_names_round_trip() {
        for kind in [
            SpanKind::Forward,
            SpanKind::Backward,
            SpanKind::Recompute,
            SpanKind::Fetch,
            SpanKind::Prefetch,
            SpanKind::Evict,
            SpanKind::Checkpoint,
            SpanKind::Restart,
            SpanKind::Replay,
        ] {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_name("nonsense"), None);
        let span = Span {
            id: SpanId(3),
            stage: 2,
            kind: SpanKind::Backward,
            subnet: Some(7),
            start_us: 0,
            end_us: 1,
            cause: None,
        };
        assert_eq!(span.label(), "SN7.backward@P2");
        assert_eq!(
            CauseKind::CspWriterCompletion { writer: 4 }.to_string(),
            "csp-writer-completion(SN4)"
        );
    }
}
