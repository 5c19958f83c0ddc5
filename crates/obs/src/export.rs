//! Renderers: Chrome-trace JSON timelines and JSONL metrics dumps.
//!
//! Both are hand-rolled (the workspace has no serde) and deterministic:
//! identical inputs produce byte-identical output, which the golden
//! Chrome-trace test relies on.
//!
//! * [`chrome_trace_json`] emits the Trace Event Format understood by
//!   `chrome://tracing` and <https://ui.perfetto.dev>: one process per
//!   executor path, one thread per actor (master = tid 0, worker *i* =
//!   tid *i* + 1), complete (`"ph":"X"`) events with microsecond
//!   timestamps.
//! * [`metrics_jsonl`] emits one JSON object per line per metric, with
//!   caller-supplied labels (e.g. a Table II cell's problem/`P`/`T_F`).

use crate::hist::Histogram;
use crate::recorder::MetricsSnapshot;
use crate::span::{Actor, SpanTrace};

/// One executor path's worth of spans in a combined Chrome trace.
pub struct TraceGroup {
    /// Process name shown in the timeline UI (e.g. `virtual-async`).
    pub name: String,
    /// The spans of that run.
    pub trace: SpanTrace,
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 as a JSON number (round-trip precision; non-finite
/// values become `null`, which Perfetto and jq both tolerate).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn tid(actor: Actor) -> usize {
    match actor {
        Actor::Master => 0,
        Actor::Worker(i) => i + 1,
    }
}

/// Renders one or more span traces as a Chrome Trace Event Format JSON
/// document. Group `g` becomes pid `g + 1`; within it the master is tid 0
/// and worker `i` is tid `i + 1`. Timestamps are microseconds from each
/// run's own t = 0.
pub fn chrome_trace_json(groups: &[TraceGroup]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        let pid = g + 1;
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&group.name)
        ));
        let mut actors: Vec<Actor> = group.trace.spans().iter().map(|s| s.actor).collect();
        actors.sort();
        actors.dedup();
        for actor in actors {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\
                 \"args\":{{\"name\":\"{actor}\"}}}}",
                tid(actor)
            ));
        }
        for s in group.trace.spans() {
            events.push(format!(
                "{{\"name\":\"{act}\",\"cat\":\"{act}\",\"ph\":\"X\",\
                 \"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{tid}}}",
                act = s.activity.trace_name(),
                ts = s.start * 1e6,
                dur = (s.end - s.start) * 1e6,
                tid = tid(s.actor),
            ));
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

fn labels_json(labels: &[(&str, String)]) -> String {
    let fields: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn histogram_json(h: &Histogram) -> String {
    let buckets: Vec<String> = h
        .buckets()
        .map(|(lo, hi, n)| format!("[{},{},{n}]", json_f64(lo), json_f64(hi)))
        .collect();
    format!(
        "\"count\":{},\"nonpositive\":{},\"sum\":{},\"min\":{},\"max\":{},\
         \"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]",
        h.count(),
        h.nonpositive(),
        json_f64(h.sum()),
        json_f64(h.min()),
        json_f64(h.max()),
        json_f64(h.mean()),
        json_f64(h.quantile(0.5)),
        json_f64(h.quantile(0.9)),
        json_f64(h.quantile(0.99)),
        buckets.join(",")
    )
}

/// Renders a metrics snapshot as JSON Lines: one object per metric, each
/// carrying the caller's labels. Counters first, then gauges, then
/// histograms, each alphabetical — deterministic for goldens and diffs.
pub fn metrics_jsonl(labels: &[(&str, String)], snap: &MetricsSnapshot) -> String {
    let labels = labels_json(labels);
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"labels\":{labels},\"value\":{value}}}\n",
            json_escape(name)
        ));
    }
    for (name, value) in &snap.gauges {
        out.push_str(&format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"labels\":{labels},\"value\":{}}}\n",
            json_escape(name),
            json_f64(*value)
        ));
    }
    for (name, h) in &snap.histograms {
        out.push_str(&format!(
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"labels\":{labels},{}}}\n",
            json_escape(name),
            histogram_json(h)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{InMemoryRecorder, Recorder};
    use crate::span::Activity;

    fn sample_trace() -> SpanTrace {
        let mut t = SpanTrace::default();
        t.record(Actor::Master, Activity::Algorithm, 0.0, 0.001);
        t.record(Actor::Master, Activity::Communication, 0.001, 0.0015);
        t.record(Actor::Worker(0), Activity::Evaluation, 0.0015, 0.01);
        t
    }

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let json = chrome_trace_json(&[TraceGroup {
            name: "virtual-async".into(),
            trace: sample_trace(),
        }]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("{\"name\":\"virtual-async\"}"));
        assert!(json.contains("{\"name\":\"master\"}"));
        assert!(json.contains("{\"name\":\"worker0\"}"));
        // The worker evaluation: starts at 1500 µs, lasts 8500 µs, tid 1.
        assert!(json.contains(
            "{\"name\":\"evaluation\",\"cat\":\"evaluation\",\"ph\":\"X\",\
             \"ts\":1500.000,\"dur\":8500.000,\"pid\":1,\"tid\":1}"
        ));
    }

    #[test]
    fn chrome_trace_assigns_one_pid_per_group() {
        let json = chrome_trace_json(&[
            TraceGroup {
                name: "a".into(),
                trace: sample_trace(),
            },
            TraceGroup {
                name: "b".into(),
                trace: sample_trace(),
            },
        ]);
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
    }

    #[test]
    fn metrics_jsonl_lines_parse_shape() {
        let rec = InMemoryRecorder::new();
        rec.counter("engine.reissues", 3);
        rec.gauge("master.utilization", 0.75);
        rec.span(Actor::Worker(0), Activity::Evaluation, 0.0, 0.002);
        let out = metrics_jsonl(
            &[("problem", "DTLZ2".to_string()), ("P", "8".to_string())],
            &rec.snapshot(),
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"labels\":{\"problem\":\"DTLZ2\",\"P\":\"8\"}"));
        }
        assert!(lines[0].contains("\"type\":\"counter\""));
        assert!(lines[0].contains("\"value\":3"));
        assert!(lines[1].contains("\"type\":\"gauge\""));
        assert!(lines[2].contains("\"type\":\"histogram\""));
        assert!(lines[2].contains("\"name\":\"t_f_seconds\""));
        assert!(lines[2].contains("\"count\":1"));
        assert!(lines[2].contains("\"buckets\":[["));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(0.001), "0.001");
    }
}
