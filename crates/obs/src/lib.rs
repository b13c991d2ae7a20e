//! Observability and correctness tooling for the NASPipe runtimes.
//!
//! The crate has three layers, mirroring the needs of the simulator
//! (`naspipe-core::pipeline`) and the threaded runtime
//! (`naspipe-core::runtime`):
//!
//! 1. **Metrics** ([`metrics`]): a lightweight [`Recorder`] trait with
//!    per-stage counters and histograms — queue depth, backward-first
//!    preemptions, stall/bubble time, context-cache hits/misses/evictions,
//!    and forward/backward task latency. [`MetricsRecorder`] is the
//!    in-memory implementation; per-worker recorders from the threaded
//!    runtime merge into one via [`MetricsRecorder::merge`].
//! 2. **Invariants** ([`invariant`]): [`CspChecker`] validates the causal
//!    synchronous parallelism contract on every task admission — no
//!    unfinished earlier subnet may still own a layer the admitted task
//!    touches — including the `min(K, s_w)` layer-mirroring refinement,
//!    and cross-checks the observed read/write interleaving per shared
//!    layer against sequential exploration order. Violations name the
//!    subnet pair and the shared layer.
//! 3. **Reports** ([`report`]): [`ObsReport`] renders the recorded
//!    metrics as a human-readable per-stage table or as JSON, for the
//!    `crates/bench` experiment drivers.
//! 4. **Tracing** ([`trace`]): the [`Tracer`] trait emits per-task
//!    [`Span`]s — forward/backward, fetch/prefetch/evict, checkpoint,
//!    restart/replay — each carrying a causal edge naming why it started
//!    when it did (activation arrival, CSP shared-layer writer
//!    completion, fetch completion, recovery replay). Consumers:
//!    [`chrome`] exports Chrome trace-event JSON loadable in Perfetto
//!    (with flow events drawing the causal edges), and [`critical_path`]
//!    walks the span DAG to attribute the end-to-end makespan to
//!    compute, fetch, causal stall, and pipeline bubble.
//! 5. **Live telemetry** ([`telemetry`] + [`expo`]): a [`TelemetryHub`]
//!    of lock-light per-stage atomic cells mirrors the recorder stream
//!    while the run is still in flight ([`TeeRecorder`]); a sampler
//!    publishes [`MetricsSnapshot`]s onto a fixed-capacity ring, rates
//!    are derived between snapshots, and [`expo`] serves the whole
//!    thing as hand-rolled Prometheus 0.0.4 text over a
//!    `std::net::TcpListener` ([`MetricsServer`]) — plus the parser /
//!    validator the `repro telemetry` hard verdicts are built on.
//! 6. **Diagnosis** ([`flight`] + [`watchdog`] + [`doctor`]): an
//!    always-on bounded [`FlightRecorder`] of compact per-stage events
//!    (dumped to `.flight.json` on faults, watchdog trips, or request),
//!    a [`Watchdog`] running stall / straggler / CSP-convoy detectors
//!    over the telemetry snapshot stream (deterministic in the DES,
//!    advisory under wall clock), and [`doctor::diagnose`] which diffs
//!    two runs' critical paths into ranked attribution deltas and a
//!    kernel-vs-scheduling verdict. [`status`] serializes the sampler's
//!    progress line and watchdog alerts onto stderr without mid-line
//!    interleaving.
//! 7. **Ops plane** ([`ops`] + [`journal`]): a multi-route HTTP surface
//!    (`/metrics`, `/healthz`, `/readyz`, `/status`, `/flight`,
//!    `/events`) over one run's live state, and the unified structured
//!    [`Journal`] — one bounded JSONL event log replacing the scattered
//!    stderr side channels, consumed by `/events`, `--journal PATH`,
//!    and `naspipe doctor`. Still hand-rolled on `std::net`, still
//!    bitwise zero-effect on results.
//!
//! Every JSON document the crate writes or reads goes through [`json`]
//! (one escaper, one depth-limited parser), every HTTP request through
//! [`ops::http_get`], and every latency distribution is a
//! [`Histogram`].
//!
//! The crate deliberately has no dependency on `naspipe-core`: the
//! runtimes resolve their own partition/stage types into plain
//! `(LayerRef, stage)` pairs before talking to the checker, so the
//! tooling stays reusable across the event-driven simulator and the real
//! threaded runtime.

pub mod chrome;
pub mod critical_path;
pub mod doctor;
pub mod expo;
pub mod flight;
pub mod invariant;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod ops;
pub mod report;
pub mod status;
pub mod telemetry;
pub mod trace;
pub mod watchdog;

pub use chrome::{export_chrome, parse_chrome, ChromeParseError};
pub use critical_path::{critical_path, AttrClass, CriticalPath, PathSegment};
pub use doctor::{
    bench_deltas, diagnose, explain_bench_check, explain_replay, flight_kind_counts,
    journal_summary, BenchDelta, Diagnosis, SpanShift, StageDelta, StallExport, StragglerRank,
};
pub use expo::{
    counter_values, monotonicity_violations, render_exposition, render_exposition_ops,
    validate_exposition, MetricsServer,
};
pub use flight::{
    FlightEvent, FlightEventKind, FlightLog, FlightRecorder, FlightSummary, DEFAULT_FLIGHT_CAPACITY,
};
pub use invariant::{CspChecker, Violation};
pub use journal::{
    parse_event, parse_journal, validate_journal, Journal, JournalEvent, JournalLevel,
    DEFAULT_JOURNAL_CAPACITY, JOURNAL_SCHEMA_VERSION,
};
pub use json::{parse_json, JsonValue};
pub use metrics::{Counter, Histogram, MetricsRecorder, NullRecorder, Recorder, Sample};
pub use ops::{
    http_get, render_top, validate_status, HttpResponse, OpsServer, OpsState, RunPhase,
    STATUS_SCHEMA_VERSION,
};
pub use report::{
    ObsReport, PoolWorkerObs, RunMeta, SeriesPoint, SeriesStage, StageObs, OBS_SCHEMA_VERSION,
};
pub use telemetry::{
    derive_rates, MetricsSnapshot, RatePoint, StageRate, TeeRecorder, TelemetryHub,
    TelemetryOptions,
};
pub use trace::{
    CausalEdge, CauseKind, NullTracer, Span, SpanDraft, SpanId, SpanKind, SpanTrace, SpanTracer,
    Tracer,
};
pub use watchdog::{
    Watchdog, WatchdogConfig, WatchdogVerdict, WatchdogVerdictKind, NUM_WATCHDOG_KINDS,
};
