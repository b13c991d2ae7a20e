//! Unified structured event journal: one bounded JSONL log for every
//! out-of-band notice the runtimes used to scatter across stderr.
//!
//! Before the journal, a run had three divergent side channels: the
//! sampler's [`status`](crate::status) progress line, watchdog trip
//! alerts, and the supervisor's `naspipe: ...` recovery/durable notices.
//! A [`Journal`] unifies them into one schema-versioned event stream
//! with levels and run-scoped fields, consumed three ways:
//!
//! * the ops plane's `GET /events` route streams the bounded ring
//!   ([`crate::ops`]),
//! * `--journal PATH` appends every event as one JSON line to a file,
//! * warn/error events are still mirrored to stderr (via
//!   [`status::alert`](crate::status::alert), so they interleave cleanly
//!   with the progress line) when mirroring is enabled.
//!
//! Emission is lock-light (one mutex around a bounded ring; events are
//! rare — checkpoint cuts, recovery transitions, watchdog trips — never
//! per-task) and has the same zero-effect-on-results guarantee as the
//! telemetry layer: the bitwise-equal run tests prove enabling it
//! changes nothing.

use crate::json::{escape_json, parse_json, JsonValue};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Ring capacity when the configuration leaves it 0.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// Schema version stamped into every line as `"v"`.
pub const JOURNAL_SCHEMA_VERSION: u64 = 1;

/// Event severity. `Info` is the normal lifecycle narration; `Warn` and
/// `Error` are mirrored to stderr when the journal mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JournalLevel {
    /// Lifecycle narration: run start/end, checkpoint cuts, persists.
    Info,
    /// Degraded but continuing: watchdog trips, failed persists, restarts.
    Warn,
    /// The run is failing: escalated faults, exhausted recovery.
    Error,
}

impl JournalLevel {
    /// Stable lowercase name used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            JournalLevel::Info => "info",
            JournalLevel::Warn => "warn",
            JournalLevel::Error => "error",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<JournalLevel> {
        match s {
            "info" => Some(JournalLevel::Info),
            "warn" => Some(JournalLevel::Warn),
            "error" => Some(JournalLevel::Error),
            _ => None,
        }
    }
}

/// One journal event. `seq` is assigned at emission and is strictly
/// increasing per journal, so consumers can detect gaps (ring drops)
/// and prove order preservation between `/events` and the sink file.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Emission sequence number (0-based, strictly increasing).
    pub seq: u64,
    /// Microseconds since run start (simulated or wall-clock).
    pub at_us: u64,
    /// Severity.
    pub level: JournalLevel,
    /// Stable kebab-case event kind, e.g. `checkpoint-cut`,
    /// `watchdog-trip`, `durable-resume`, `restart`, `run-end`.
    pub kind: String,
    /// Stage the event is charged to, when one is.
    pub stage: Option<u32>,
    /// Human-readable one-liner (what the stderr mirror prints).
    pub message: String,
    /// Kind-specific structured fields, in emission order.
    pub fields: Vec<(String, String)>,
}

impl JournalEvent {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + self.message.len());
        let _ = write!(
            out,
            "{{\"v\":{},\"seq\":{},\"at_us\":{},\"level\":\"{}\",\"kind\":\"{}\"",
            JOURNAL_SCHEMA_VERSION,
            self.seq,
            self.at_us,
            self.level.name(),
            escape_json(&self.kind),
        );
        if let Some(stage) = self.stage {
            let _ = write!(out, ",\"stage\":{stage}");
        }
        let _ = write!(out, ",\"msg\":\"{}\"", escape_json(&self.message));
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

struct Inner {
    ring: VecDeque<JournalEvent>,
    next_seq: u64,
    sink: Option<std::fs::File>,
    sink_failed: bool,
}

/// The bounded, structured event log. Emission appends to a ring (oldest
/// evicted and counted when full), optionally appends one JSON line to a
/// sink file, and optionally mirrors warn/error events to stderr.
pub struct Journal {
    inner: Mutex<Inner>,
    capacity: usize,
    dropped: AtomicU64,
    mirror: bool,
    sink_path: Option<PathBuf>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.capacity)
            .field("mirror", &self.mirror)
            .field("sink", &self.sink_path)
            .finish()
    }
}

impl Journal {
    /// A journal retaining `capacity` events (0 means
    /// [`DEFAULT_JOURNAL_CAPACITY`]); no sink, no stderr mirror.
    pub fn new(capacity: usize) -> Self {
        let capacity = if capacity == 0 {
            DEFAULT_JOURNAL_CAPACITY
        } else {
            capacity
        };
        Journal {
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity.min(4096)),
                next_seq: 0,
                sink: None,
                sink_failed: false,
            }),
            capacity,
            dropped: AtomicU64::new(0),
            mirror: false,
            sink_path: None,
        }
    }

    /// Mirrors warn/error events to stderr as `naspipe: ...` alert lines
    /// (builder; call before sharing the journal).
    pub fn with_mirror(mut self) -> Self {
        self.mirror = true;
        self
    }

    /// Additionally appends every event as one JSON line to `path`
    /// (truncating; a journal file is one run's log).
    pub fn with_sink(mut self, path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        self.inner.get_mut().expect("journal lock poisoned").sink = Some(file);
        self.sink_path = Some(path.to_path_buf());
        Ok(self)
    }

    /// The sink file path, when one is attached.
    pub fn sink_path(&self) -> Option<&Path> {
        self.sink_path.as_deref()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Emits one event. Returns its sequence number.
    pub fn emit(
        &self,
        level: JournalLevel,
        kind: &str,
        stage: Option<u32>,
        at_us: u64,
        message: impl Into<String>,
        fields: Vec<(String, String)>,
    ) -> u64 {
        let event = {
            let mut inner = self.inner.lock().expect("journal lock poisoned");
            let event = JournalEvent {
                seq: inner.next_seq,
                at_us,
                level,
                kind: kind.to_string(),
                stage,
                message: message.into(),
                fields,
            };
            inner.next_seq += 1;
            if inner.ring.len() == self.capacity {
                inner.ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            inner.ring.push_back(event.clone());
            // Sink writes stay inside the lock so the file preserves
            // emission order; events are rare, so this is never hot.
            if !inner.sink_failed {
                if let Some(file) = inner.sink.as_mut() {
                    let line = event.to_json();
                    if writeln!(file, "{line}").and_then(|_| file.flush()).is_err() {
                        inner.sink_failed = true;
                    }
                }
            }
            event
        };
        if self.mirror && event.level >= JournalLevel::Warn {
            crate::status::alert(&format!("naspipe: {}", event.message));
        }
        event.seq
    }

    /// Copies the retained ring, oldest first.
    pub fn snapshot(&self) -> Vec<JournalEvent> {
        let inner = self.inner.lock().expect("journal lock poisoned");
        inner.ring.iter().cloned().collect()
    }

    /// Retained events with `seq >= since` (for incremental `/events`
    /// consumers).
    pub fn events_since(&self, since: u64) -> Vec<JournalEvent> {
        let inner = self.inner.lock().expect("journal lock poisoned");
        inner
            .ring
            .iter()
            .filter(|e| e.seq >= since)
            .cloned()
            .collect()
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events retained right now.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("journal lock poisoned").ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever emitted.
    pub fn emitted(&self) -> u64 {
        self.inner.lock().expect("journal lock poisoned").next_seq
    }
}

/// Parses one journal JSON line back into a [`JournalEvent`].
pub fn parse_event(line: &str) -> Result<JournalEvent, String> {
    let doc = parse_json(line)?;
    let v = doc
        .get("v")
        .and_then(JsonValue::as_u64)
        .ok_or("missing \"v\"")?;
    if v != JOURNAL_SCHEMA_VERSION {
        return Err(format!("unsupported journal schema v{v}"));
    }
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing {k:?}"));
    let level_name = field("level")?.as_str().ok_or("\"level\" not a string")?;
    Ok(JournalEvent {
        seq: field("seq")?.as_u64().ok_or("\"seq\" not an integer")?,
        at_us: field("at_us")?.as_u64().ok_or("\"at_us\" not an integer")?,
        level: JournalLevel::parse(level_name)
            .ok_or_else(|| format!("unknown level {level_name:?}"))?,
        kind: field("kind")?
            .as_str()
            .ok_or("\"kind\" not a string")?
            .to_string(),
        stage: match doc.get("stage") {
            None => None,
            Some(s) => Some(s.as_u64().ok_or("\"stage\" not an integer")? as u32),
        },
        message: field("msg")?
            .as_str()
            .ok_or("\"msg\" not a string")?
            .to_string(),
        fields: match doc.get("fields") {
            None => Vec::new(),
            Some(JsonValue::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("field {k:?} not a string"))
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err("\"fields\" not an object".into()),
        },
    })
}

/// Parses a whole journal (one JSON object per non-empty line).
pub fn parse_journal(text: &str) -> Result<Vec<JournalEvent>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .enumerate()
        .map(|(i, line)| parse_event(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Validates a journal text: every line schema-valid, sequence strictly
/// increasing (order-preserving). Returns the list of problems (empty =
/// valid).
pub fn validate_journal(text: &str) -> Vec<String> {
    let events = match parse_journal(text) {
        Ok(ev) => ev,
        Err(e) => return vec![e],
    };
    let mut problems = Vec::new();
    for pair in events.windows(2) {
        if pair[1].seq <= pair[0].seq {
            problems.push(format!(
                "sequence not strictly increasing: {} then {}",
                pair[0].seq, pair[1].seq
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_n(j: &Journal, n: u64) {
        for i in 0..n {
            j.emit(
                JournalLevel::Info,
                "checkpoint-cut",
                Some((i % 3) as u32),
                i * 100,
                format!("watermark {i}"),
                vec![("watermark".into(), i.to_string())],
            );
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let j = Journal::new(3);
        emit_n(&j, 5);
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.emitted(), 5);
        let seqs: Vec<u64> = j.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted first");
    }

    #[test]
    fn zero_capacity_uses_default() {
        assert_eq!(Journal::new(0).capacity(), DEFAULT_JOURNAL_CAPACITY);
    }

    #[test]
    fn events_round_trip_through_json() {
        let j = Journal::new(8);
        j.emit(
            JournalLevel::Warn,
            "watchdog-trip",
            Some(2),
            1234,
            "watchdog: straggler on stage 2 at 1234us (busy \"x\")",
            vec![("verdict".into(), "straggler".into())],
        );
        j.emit(
            JournalLevel::Error,
            "run-failed",
            None,
            9999,
            "boom\nline2",
            vec![],
        );
        for e in j.snapshot() {
            let parsed = parse_event(&e.to_json()).expect("line parses");
            assert_eq!(parsed, e);
        }
    }

    #[test]
    fn sink_file_matches_snapshot_and_validates() {
        let path =
            std::env::temp_dir().join(format!("naspipe-journal-test-{}.jsonl", std::process::id()));
        let j = Journal::new(16).with_sink(&path).expect("sink opens");
        emit_n(&j, 4);
        let text = std::fs::read_to_string(&path).expect("sink readable");
        assert!(validate_journal(&text).is_empty(), "sink file valid");
        let from_file = parse_journal(&text).unwrap();
        assert_eq!(from_file, j.snapshot(), "file replays the ring exactly");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn events_since_filters_by_sequence() {
        let j = Journal::new(8);
        emit_n(&j, 5);
        let tail = j.events_since(3);
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn validate_flags_out_of_order_sequences() {
        let a = JournalEvent {
            seq: 4,
            at_us: 0,
            level: JournalLevel::Info,
            kind: "x".into(),
            stage: None,
            message: "m".into(),
            fields: vec![],
        };
        let b = JournalEvent {
            seq: 2,
            ..a.clone()
        };
        let text = format!("{}\n{}\n", a.to_json(), b.to_json());
        let problems = validate_journal(&text);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("strictly increasing"));
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(parse_event("{\"v\":2,\"seq\":0}").is_err());
        assert!(parse_event("not json").is_err());
        assert!(parse_event(
            "{\"v\":1,\"seq\":0,\"at_us\":1,\"level\":\"loud\",\"kind\":\"k\",\"msg\":\"m\"}"
        )
        .is_err());
    }
}
