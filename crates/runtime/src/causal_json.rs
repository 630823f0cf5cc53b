//! JSON renderings of a run's causal log: JSON lines, and a Chrome trace
//! with causal flow arrows between the components' tracks.

use csp_causal::{CausalEventKind, CausalLog};
use csp_obs::json_string;

/// The log as JSON lines (`csp run --causal-out`): a header line with
/// labels, capacity and drop count, then one object per event.
pub fn causal_jsonl(log: &CausalLog) -> String {
    let mut out = String::new();
    out.push_str("{\"labels\":[");
    for (i, l) in log.labels().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(l));
    }
    out.push_str(&format!(
        "],\"cap\":{},\"dropped\":{}}}\n",
        log.cap(),
        log.dropped()
    ));
    for e in log.events() {
        let (kind, detail) = match &e.kind {
            CausalEventKind::Comm {
                event,
                sender,
                receiver,
                hidden,
            } => (
                "comm",
                format!(
                    "\"event\":{},\"sender\":{},\"receiver\":{},\"hidden\":{}",
                    json_string(&event.to_string()),
                    opt(*sender),
                    opt(*receiver),
                    hidden
                ),
            ),
            CausalEventKind::Fault { detail } => {
                ("fault", format!("\"detail\":{}", json_string(detail)))
            }
            CausalEventKind::Death { detail } => {
                ("death", format!("\"detail\":{}", json_string(detail)))
            }
            CausalEventKind::Restart => ("restart", String::new()),
        };
        out.push_str(&format!(
            "{{\"seq\":{},\"step\":{},\"kind\":{}",
            e.seq,
            e.step,
            json_string(kind)
        ));
        if !detail.is_empty() {
            out.push(',');
            out.push_str(&detail);
        }
        out.push_str(",\"participants\":[");
        for (i, p) in e.participants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&p.to_string());
        }
        out.push_str("],\"pre_clocks\":[");
        for (i, c) in e.pre_clocks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push_str(&format!("],\"clock\":{}}}\n", e.clock));
    }
    out
}

fn opt(v: Option<usize>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Renders the log as a Chrome trace-event JSON document
/// (`{"traceEvents":[…]}`), loadable by `chrome://tracing` and Perfetto:
/// one track (`tid`) per component, one complete slice per communication
/// on each participant's track, and a *flow event* (`ph:"s"` → `ph:"f"`)
/// from the sender's slice to the receiver's slice so the viewer draws
/// the causal arrow between process tracks. Supervision events become
/// instant events on the affected component's track.
///
/// Timestamps are synthetic — the committed event index in microseconds
/// — because the causal order, not wall time, is the semantic content.
pub fn chrome_causal_trace(log: &CausalLog) -> String {
    let mut events: Vec<String> = Vec::new();
    for (i, label) in log.labels().iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"args\":{{\"name\":{}}}}}",
            json_string(label)
        ));
    }
    for e in log.events() {
        let ts = e.seq * 1000;
        match &e.kind {
            CausalEventKind::Comm {
                event,
                sender,
                receiver,
                hidden,
            } => {
                let name = json_string(&event.to_string());
                for &p in &e.participants {
                    events.push(format!(
                        "{{\"name\":{name},\"ph\":\"X\",\"pid\":1,\"tid\":{p},\"ts\":{ts},\"dur\":800,\
                         \"args\":{{\"seq\":{},\"step\":{},\"clock\":{},\"hidden\":{}}}}}",
                        e.seq,
                        e.step,
                        json_string(&e.clock.to_string()),
                        hidden
                    ));
                }
                if let (Some(s), Some(r)) = (sender, receiver) {
                    if s != r {
                        events.push(format!(
                            "{{\"name\":{name},\"cat\":\"causal\",\"ph\":\"s\",\"id\":{},\"pid\":1,\"tid\":{s},\"ts\":{}}}",
                            e.seq,
                            ts + 100
                        ));
                        events.push(format!(
                            "{{\"name\":{name},\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"pid\":1,\"tid\":{r},\"ts\":{}}}",
                            e.seq,
                            ts + 700
                        ));
                    }
                }
            }
            other => {
                let p = e.participants.first().copied().unwrap_or(0);
                events.push(format!(
                    "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{p},\"ts\":{ts},\
                     \"args\":{{\"seq\":{},\"clock\":{}}}}}",
                    json_string(&other.label()),
                    e.seq,
                    json_string(&e.clock.to_string())
                ));
            }
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_causal::VectorClock;
    use csp_trace::{Channel, Event, Value};

    /// A two-component log with one joint communication, sent by 0.
    fn joint() -> CausalLog {
        let mut log = CausalLog::new(vec!["left".into(), "right".into()], 8);
        let mut p0 = VectorClock::new(2);
        p0.tick(0);
        let mut p1 = VectorClock::new(2);
        p1.tick(1);
        let mut merged = p0.clone();
        merged.merge(&p1);
        log.push(
            0,
            CausalEventKind::Comm {
                event: Event::new(Channel::simple("w"), Value::nat(3)),
                sender: Some(0),
                receiver: Some(1),
                hidden: false,
            },
            vec![0, 1],
            vec![p0, p1],
            merged,
        );
        log
    }

    #[test]
    fn jsonl_export_has_header_and_one_line_per_event() {
        let mut log = joint();
        log.push(
            1,
            CausalEventKind::Death {
                detail: "crash \"injected\"".into(),
            },
            vec![1],
            vec![VectorClock::from_entries(vec![1, 2])],
            VectorClock::from_entries(vec![1, 2]),
        );
        let text = causal_jsonl(&log);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"labels\":[\"left\",\"right\"],\"cap\":8,\"dropped\":0}"
        );
        assert!(lines[1].contains("\"event\":\"w.3\""));
        assert!(lines[1].contains("\"sender\":0,\"receiver\":1"));
        assert!(lines[1].contains("\"clock\":[1,1]"));
        assert!(
            lines[2].contains("\"detail\":\"crash \\\"injected\\\"\""),
            "{}",
            lines[2]
        );
        for line in lines {
            csp_obs::parse_json(line).expect("each line is JSON");
        }
    }

    #[test]
    fn flow_events_link_sender_to_receiver() {
        let log = joint();
        let json = chrome_causal_trace(&log);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"clock\":\"[1,1]\""));
        // Two slices (one per participant track) for the one event.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
