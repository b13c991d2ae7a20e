//! Chrome trace-event export for [`SpanTrace`]s.
//!
//! Emits the JSON Object Format of the Trace Event spec — loadable in
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`: one `"X"`
//! complete event per span (`ts`/`dur` in microseconds, `tid` = stage)
//! and an `"s"`/`"f"` flow-event pair per causal edge, so Perfetto draws
//! an arrow from the releasing span to the released one.
//!
//! Every `"X"` event's `args` carries the exact span fields (`span_id`,
//! `subnet`, `cause_src`, `cause_kind`, ...), so [`parse_chrome`]
//! reconstructs the original trace losslessly — the round-trip is the
//! in-repo proof the output is well-formed JSON a viewer will accept
//! (no serde in the build environment; both directions are hand-rolled).

use crate::json::{escape_json, parse_json, JsonValue};
use crate::report::RunMeta;
use crate::trace::{CausalEdge, CauseKind, Span, SpanId, SpanKind, SpanTrace};
use std::fmt::Write as _;

/// Serializes `trace` to Chrome trace-event JSON (object format).
pub fn export_chrome(trace: &SpanTrace, meta: &RunMeta) -> String {
    let mut out = String::with_capacity(256 + trace.len() * 192);
    out.push_str("{\n\"traceEvents\": [\n");
    let mut first = true;
    let mut push_event = |out: &mut String, body: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(body);
    };

    // Thread-name metadata: one lane per stage, named P{k}.
    for stage in 0..trace.num_stages() {
        push_event(
            &mut out,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{stage},\
                 \"args\":{{\"name\":\"P{stage}\"}}}}"
            ),
        );
    }

    let mut flows: Vec<(u64, &Span, &Span)> = Vec::new();
    for span in trace.spans() {
        let mut ev = String::with_capacity(192);
        let _ = write!(
            ev,
            "{{\"name\":\"{label}\",\"cat\":\"{kind}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\
             \"tid\":{tid},\"args\":{{\"span_id\":{id},\"kind\":\"{kind}\",\"stage\":{tid}",
            label = escape_json(&span.label()),
            kind = span.kind.name(),
            ts = span.start_us,
            dur = span.dur_us(),
            tid = span.stage,
            id = span.id.0,
        );
        if let Some(subnet) = span.subnet {
            let _ = write!(ev, ",\"subnet\":{subnet}");
        }
        if let Some(cause) = &span.cause {
            let _ = write!(
                ev,
                ",\"cause_src\":{},\"cause_kind\":\"{}\"",
                cause.src.0,
                cause.kind.name()
            );
            match cause.kind {
                CauseKind::CspWriterCompletion { writer } => {
                    let _ = write!(ev, ",\"cause_writer\":{writer}");
                }
                CauseKind::RecoveryReplay { incarnation } => {
                    let _ = write!(ev, ",\"cause_incarnation\":{incarnation}");
                }
                _ => {}
            }
            if let Some(src) = trace.get(cause.src) {
                flows.push((span.id.0, src, span));
            }
        }
        ev.push_str("}}");
        push_event(&mut out, &ev);
    }

    // Flow events: arrow from the releasing span's end to the released
    // span's start. bp:"e" binds the start point to the enclosing slice.
    for (flow_id, src, dst) in flows {
        let kind = dst.cause.as_ref().expect("flow implies cause").kind;
        push_event(
            &mut out,
            &format!(
                "{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":{flow_id},\
                 \"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                name = kind.name(),
                ts = src.end_us,
                tid = src.stage,
            ),
        );
        push_event(
            &mut out,
            &format!(
                "{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"id\":{flow_id},\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                name = kind.name(),
                ts = dst.start_us,
                tid = dst.stage,
            ),
        );
    }

    out.push_str("\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
    let _ = write!(
        out,
        "\"schema\": 2, \"engine\": \"{}\", \"stages\": {}",
        escape_json(&meta.engine),
        meta.stages
    );
    if let Some(seed) = meta.seed {
        let _ = write!(out, ", \"seed\": {seed}");
    }
    out.push_str("}\n}\n");
    out
}

/// Why [`parse_chrome`] rejected an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeParseError {
    /// Human-readable reason.
    pub message: String,
}

impl std::fmt::Display for ChromeParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chrome trace parse error: {}", self.message)
    }
}

impl std::error::Error for ChromeParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ChromeParseError> {
    Err(ChromeParseError {
        message: message.into(),
    })
}

fn as_u32(v: &JsonValue) -> Option<u32> {
    v.as_u64().and_then(|n| u32::try_from(n).ok())
}

fn cause_from_args(args: &JsonValue) -> Result<Option<CausalEdge>, ChromeParseError> {
    let Some(src) = args.get("cause_src").and_then(JsonValue::as_u64) else {
        return Ok(None);
    };
    let kind_name = args
        .get("cause_kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| ChromeParseError {
            message: "cause_src without cause_kind".into(),
        })?;
    let kind = match kind_name {
        "injection" => CauseKind::Injection,
        "activation-arrival" => CauseKind::ActivationArrival,
        "gradient-arrival" => CauseKind::GradientArrival,
        "fetch-completion" => CauseKind::FetchCompletion,
        "csp-writer-completion" => CauseKind::CspWriterCompletion {
            writer: args
                .get("cause_writer")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| ChromeParseError {
                    message: "csp-writer-completion without cause_writer".into(),
                })?,
        },
        "recovery-replay" => CauseKind::RecoveryReplay {
            incarnation: args
                .get("cause_incarnation")
                .and_then(as_u32)
                .ok_or_else(|| ChromeParseError {
                    message: "recovery-replay without a u32 cause_incarnation".into(),
                })?,
        },
        other => return err(format!("unknown cause_kind {other:?}")),
    };
    Ok(Some(CausalEdge {
        src: SpanId(src),
        kind,
    }))
}

/// Parses a file produced by [`export_chrome`] back into a
/// [`SpanTrace`] (plus the embedded [`RunMeta`]). Only `"X"` events
/// with a `span_id` arg become spans; metadata and flow events are
/// structural and skipped.
pub fn parse_chrome(input: &str) -> Result<(SpanTrace, RunMeta), ChromeParseError> {
    let root = parse_json(input).map_err(|message| ChromeParseError { message })?;
    let events = match root.get("traceEvents") {
        Some(JsonValue::Arr(events)) => events,
        _ => return err("missing traceEvents array"),
    };
    let mut spans = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(JsonValue::as_str) != Some("X") {
            continue;
        }
        let args = ev.get("args").ok_or_else(|| ChromeParseError {
            message: "X event without args".into(),
        })?;
        let Some(id) = args.get("span_id").and_then(JsonValue::as_u64) else {
            continue;
        };
        let kind_name = args
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ChromeParseError {
                message: format!("span {id} without kind"),
            })?;
        let kind = SpanKind::from_name(kind_name).ok_or_else(|| ChromeParseError {
            message: format!("span {id} has unknown kind {kind_name:?}"),
        })?;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ChromeParseError {
                message: format!("span {id} without ts"),
            })?;
        let dur = ev
            .get("dur")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ChromeParseError {
                message: format!("span {id} without dur"),
            })?;
        let stage = ev
            .get("tid")
            .and_then(as_u32)
            .ok_or_else(|| ChromeParseError {
                message: format!("span {id} without a u32 tid"),
            })?;
        let end_us = ts.checked_add(dur).ok_or_else(|| ChromeParseError {
            message: format!("span {id} ts + dur overflows u64"),
        })?;
        spans.push(Span {
            id: SpanId(id),
            stage,
            kind,
            subnet: args.get("subnet").and_then(JsonValue::as_u64),
            start_us: ts,
            end_us,
            cause: cause_from_args(args)?,
        });
    }
    let other = root.get("otherData");
    let meta = RunMeta {
        engine: other
            .and_then(|o| o.get("engine"))
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string(),
        stages: other
            .and_then(|o| o.get("stages"))
            .and_then(as_u32)
            .unwrap_or(0),
        seed: other
            .and_then(|o| o.get("seed"))
            .and_then(JsonValue::as_u64),
    };
    Ok((SpanTrace::from_spans(spans), meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanDraft, SpanTracer, Tracer};

    fn sample_trace() -> SpanTrace {
        let mut t = SpanTracer::with_namespace(3);
        let f0 = t.emit(
            SpanDraft::new(0, SpanKind::Forward, 0, 10)
                .subnet(0)
                .caused_by(SpanId::EXTERNAL, CauseKind::Injection),
        );
        let fetch = t.emit(SpanDraft::new(1, SpanKind::Fetch, 10, 14).subnet(0));
        let f1 = t.emit(
            SpanDraft::new(1, SpanKind::Forward, 14, 24)
                .subnet(0)
                .caused_by(fetch, CauseKind::FetchCompletion),
        );
        t.emit(
            SpanDraft::new(0, SpanKind::Forward, 12, 22)
                .subnet(1)
                .caused_by(f0, CauseKind::CspWriterCompletion { writer: 0 }),
        );
        t.emit(
            SpanDraft::new(1, SpanKind::Backward, 24, 30)
                .subnet(0)
                .caused_by(f1, CauseKind::GradientArrival),
        );
        t.emit(SpanDraft::new(1, SpanKind::Evict, 30, 30));
        t.take()
    }

    #[test]
    fn round_trip_preserves_every_span() {
        let trace = sample_trace();
        let meta = RunMeta::new("des", 2).seed(7);
        let json = export_chrome(&trace, &meta);
        let (parsed, parsed_meta) = parse_chrome(&json).expect("parse back");
        assert_eq!(parsed, trace);
        assert_eq!(parsed_meta, meta);
    }

    #[test]
    fn export_contains_flow_pair_per_internal_edge() {
        let trace = sample_trace();
        let json = export_chrome(&trace, &RunMeta::new("des", 2));
        // 4 causal edges, one of which (Injection) points outside the
        // trace -> 3 flow pairs.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 3);
        assert!(json.contains("\"bp\":\"e\""));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn parser_rejects_garbage_and_truncation() {
        assert!(parse_chrome("not json").is_err());
        assert!(parse_chrome("{}").is_err());
        let good = export_chrome(&sample_trace(), &RunMeta::new("des", 2));
        let truncated = &good[..good.len() / 2];
        assert!(parse_chrome(truncated).is_err());
    }

    #[test]
    fn parser_handles_escapes() {
        let json = r#"{"traceEvents": [
            {"ph":"X","ts":1,"dur":2,"tid":0,
             "args":{"span_id":9,"kind":"forward","note":"a\"b\\cA\n"}}
        ]}"#;
        let (trace, _) = parse_chrome(json).expect("parse");
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.spans()[0].id, SpanId(9));
    }

    #[test]
    fn parser_rejects_deep_nesting_without_overflowing() {
        let hostile = format!("{{\"traceEvents\":{}", "[".repeat(200_000));
        let e = parse_chrome(&hostile).unwrap_err();
        assert!(e.message.contains("nesting deeper"), "{e}");
    }

    #[test]
    fn parser_rejects_out_of_range_fields() {
        let event = |fields: &str, args: &str| {
            format!(
                "{{\"traceEvents\":[{{\"ph\":\"X\",{fields},\
                 \"args\":{{\"span_id\":1,\"kind\":\"forward\"{args}}}}}]}}"
            )
        };
        let replay = ",\"cause_src\":0,\"cause_kind\":\"recovery-replay\"";
        let cases = [
            (event("\"ts\":1e30,\"dur\":1,\"tid\":0", ""), "without ts"),
            (
                event("\"ts\":1e19,\"dur\":1e19,\"tid\":0", ""),
                "ts + dur overflows",
            ),
            (
                event("\"ts\":0,\"dur\":1,\"tid\":4294967296", ""),
                "u32 tid",
            ),
            (
                event(
                    "\"ts\":0,\"dur\":1,\"tid\":0",
                    &format!("{replay},\"cause_incarnation\":4294967296"),
                ),
                "u32 cause_incarnation",
            ),
        ];
        for (json, want) in &cases {
            let e = parse_chrome(json).unwrap_err();
            assert!(e.message.contains(want), "{json}: {e}");
        }
        // The largest in-range values still parse.
        let edge = event(
            "\"ts\":1,\"dur\":2,\"tid\":7",
            &format!("{replay},\"cause_incarnation\":4294967295"),
        );
        let (trace, _) = parse_chrome(&edge).expect("in-range values parse");
        assert_eq!(
            trace.spans()[0].cause.unwrap().kind,
            CauseKind::RecoveryReplay {
                incarnation: u32::MAX
            }
        );
        assert_eq!(trace.spans()[0].end_us, 3);
    }
}
