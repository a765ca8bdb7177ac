//! JSONL serialization of trace events, plus the minimal parser used by
//! replay tests and external tooling.
//!
//! Every line is one flat JSON object discriminated by its `"type"` field:
//!
//! ```text
//! {"type":"span_start","id":0,"parent":null,"name":"decompose","t_us":12}
//! {"type":"span_end","id":0,"t_us":340,"rounds":3,"kernel_launches":0,
//!  "work_items":900,"edges_scanned":4000}
//! {"type":"round","span":0,"phase":"decompose","round":0,"active":128,
//!  "settled":40,"edges_scanned":1300,"work_items":128,"duration_us":95}
//! ```
//!
//! Values are only ever unsigned integers, booleans, `null`, or plain
//! strings (phase names). Lines are read back with the workspace's one
//! JSON parser, `sb_metrics::parse_json_value`; integers above
//! [`MAX_SAFE_JSON_INT`] are rejected rather than rounded.

use crate::{CounterDelta, RoundRecord, TraceEvent};
use sb_metrics::{escape_json, parse_json_value, JsonValue, MAX_SAFE_JSON_INT};
use std::io::Write;

/// Serialize one event as a single JSONL line.
pub fn write_event<W: Write>(w: &mut W, event: &TraceEvent) -> std::io::Result<()> {
    match event {
        TraceEvent::SpanStart {
            id,
            parent,
            name,
            t_us,
        } => {
            let parent = match parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                w,
                "{{\"type\":\"span_start\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"t_us\":{t_us}}}",
                escape_json(name)
            )
        }
        TraceEvent::SpanEnd { id, t_us, delta } => writeln!(
            w,
            "{{\"type\":\"span_end\",\"id\":{id},\"t_us\":{t_us},\"rounds\":{},\"kernel_launches\":{},\"work_items\":{},\"edges_scanned\":{}}}",
            delta.rounds, delta.kernel_launches, delta.work_items, delta.edges_scanned
        ),
        TraceEvent::Round {
            span,
            phase,
            record,
        } => {
            let span = match span {
                Some(s) => s.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                w,
                "{{\"type\":\"round\",\"span\":{span},\"phase\":\"{}\",\"round\":{},\"active\":{},\"settled\":{},\"edges_scanned\":{},\"work_items\":{},\"duration_us\":{},\"vacuous\":{}}}",
                escape_json(phase),
                record.round,
                record.active,
                record.settled,
                record.edges_scanned,
                record.work_items,
                record.duration_us,
                record.vacuous
            )
        }
    }
}

/// Error produced by [`parse_jsonl`], carrying the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line of the input that failed to parse.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace JSONL line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a whole JSONL trace back into events. Blank lines are skipped.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut events = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        let value = parse_json_value(trimmed).map_err(|message| ParseError { line, message })?;
        events.push(event_from_json(&value).map_err(|message| ParseError { line, message })?);
    }
    Ok(events)
}

fn event_from_json(v: &JsonValue) -> Result<TraceEvent, String> {
    let get = |key: &str| -> Result<&JsonValue, String> {
        v.get(key).ok_or_else(|| format!("missing field {key:?}"))
    };
    let num = |key: &str| -> Result<u64, String> {
        match get(key)?.as_u64() {
            Some(n) if n <= MAX_SAFE_JSON_INT => Ok(n),
            Some(n) => Err(format!("field {key:?} value {n} exceeds 2^53-1")),
            None => Err(format!("field {key:?} must be a number")),
        }
    };
    let opt_num = |key: &str| -> Result<Option<u64>, String> {
        match get(key)? {
            JsonValue::Null => Ok(None),
            JsonValue::Num(_) => num(key).map(Some),
            _ => Err(format!("field {key:?} must be a number or null")),
        }
    };
    let string = |key: &str| -> Result<String, String> {
        get(key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("field {key:?} must be a string"))
    };
    match string("type")?.as_str() {
        "span_start" => Ok(TraceEvent::SpanStart {
            id: num("id")? as u32,
            parent: opt_num("parent")?.map(|p| p as u32),
            name: string("name")?,
            t_us: num("t_us")?,
        }),
        "span_end" => Ok(TraceEvent::SpanEnd {
            id: num("id")? as u32,
            t_us: num("t_us")?,
            delta: CounterDelta {
                rounds: num("rounds")?,
                kernel_launches: num("kernel_launches")?,
                work_items: num("work_items")?,
                edges_scanned: num("edges_scanned")?,
            },
        }),
        "round" => Ok(TraceEvent::Round {
            span: opt_num("span")?.map(|s| s as u32),
            phase: string("phase")?,
            record: RoundRecord {
                round: num("round")?,
                active: num("active")?,
                settled: num("settled")?,
                edges_scanned: num("edges_scanned")?,
                work_items: num("work_items")?,
                duration_us: num("duration_us")?,
                // Absent in traces written before the flag existed.
                vacuous: match v.get("vacuous") {
                    Some(JsonValue::Bool(b)) => *b,
                    Some(_) => return Err("field \"vacuous\" must be a boolean".to_string()),
                    None => false,
                },
            },
        }),
        other => Err(format!("unknown event type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterDelta, RoundRecord, TraceEvent};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SpanStart {
                id: 0,
                parent: None,
                name: "decompose".to_string(),
                t_us: 5,
            },
            TraceEvent::SpanStart {
                id: 1,
                parent: Some(0),
                name: "induced-solve".to_string(),
                t_us: 8,
            },
            TraceEvent::Round {
                span: Some(1),
                phase: "induced-solve".to_string(),
                record: RoundRecord {
                    round: 0,
                    active: 100,
                    settled: 42,
                    edges_scanned: 350,
                    work_items: 100,
                    duration_us: 17,
                    vacuous: false,
                },
            },
            TraceEvent::SpanEnd {
                id: 1,
                t_us: 30,
                delta: CounterDelta {
                    rounds: 1,
                    kernel_launches: 2,
                    work_items: 100,
                    edges_scanned: 350,
                },
            },
            TraceEvent::SpanEnd {
                id: 0,
                t_us: 44,
                delta: CounterDelta {
                    rounds: 1,
                    kernel_launches: 2,
                    work_items: 130,
                    edges_scanned: 400,
                },
            },
        ]
    }

    #[test]
    fn round_trips_through_jsonl() {
        let events = sample_events();
        let mut buf = Vec::new();
        for e in &events {
            write_event(&mut buf, e).unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), events.len());
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn parser_skips_blank_lines_and_reports_position() {
        let good = "{\"type\":\"span_start\",\"id\":0,\"parent\":null,\"name\":\"x\",\"t_us\":1}";
        let parsed = parse_jsonl(&format!("\n{good}\n\n")).unwrap();
        assert_eq!(parsed.len(), 1);

        let err = parse_jsonl(&format!("{good}\nnot json")).unwrap_err();
        assert_eq!(err.line, 2);

        let err = parse_jsonl("{\"type\":\"mystery\"}").unwrap_err();
        assert!(err.message.contains("mystery"), "{err}");
    }

    #[test]
    fn strings_with_escapes_survive() {
        let e = TraceEvent::SpanStart {
            id: 0,
            parent: None,
            name: "weird \"name\"\\with\nescapes".to_string(),
            t_us: 0,
        };
        let mut buf = Vec::new();
        write_event(&mut buf, &e).unwrap();
        let parsed = parse_jsonl(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(parsed, vec![e]);
    }

    #[test]
    fn integers_beyond_exact_json_range_are_rejected() {
        let line = |t_us: u64| {
            format!("{{\"type\":\"span_start\",\"id\":0,\"parent\":null,\"name\":\"x\",\"t_us\":{t_us}}}")
        };
        let ok = parse_jsonl(&line(MAX_SAFE_JSON_INT)).unwrap();
        assert!(matches!(ok[0], TraceEvent::SpanStart { t_us, .. } if t_us == MAX_SAFE_JSON_INT));
        let text = format!("{}\n{}", line(1), line(MAX_SAFE_JSON_INT + 2));
        let err = parse_jsonl(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("2^53-1"), "{err}");
    }

    #[test]
    fn absent_vacuous_flag_reads_as_false() {
        let text = "{\"type\":\"round\",\"span\":null,\"phase\":\"solve\",\"round\":0,\
                    \"active\":1,\"settled\":1,\"edges_scanned\":2,\"work_items\":1,\"duration_us\":3}";
        match &parse_jsonl(text).unwrap()[0] {
            TraceEvent::Round { record, .. } => assert!(!record.vacuous),
            other => panic!("expected a round, got {other:?}"),
        }
    }
}
