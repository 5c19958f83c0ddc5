//! Activity-span vocabulary for timeline diagrams (Figures 1 and 2).
//!
//! The paper's Figures 1–2 are Gantt-style timelines of the master and
//! worker nodes showing communication (`T_C`), algorithm (`T_A`),
//! evaluation (`T_F`) and idle periods. Executors emit [`Span`]s through a
//! [`crate::Recorder`]; the experiment harness renders a collected
//! [`SpanTrace`] as CSV, as an ASCII Gantt chart, or as Chrome-trace JSON
//! via [`crate::export`].
//!
//! Times are plain `f64` seconds — virtual (DES / virtual-time executors)
//! or wall-clock (real threads); the vocabulary does not care which.

/// Who performed an activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Actor {
    /// The master node.
    Master,
    /// Worker node `i` (0-based).
    Worker(usize),
}

impl std::fmt::Display for Actor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Actor::Master => write!(f, "master"),
            Actor::Worker(i) => write!(f, "worker{i}"),
        }
    }
}

/// What kind of work a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Message transfer (`T_C`).
    Communication,
    /// Master-side algorithm work (`T_A`).
    Algorithm,
    /// Objective function evaluation (`T_F`).
    Evaluation,
    /// Waiting (explicit idle spans are optional; gaps read as idle too).
    Idle,
}

impl Activity {
    /// One-character glyph for the ASCII Gantt rendering.
    pub fn glyph(self) -> char {
        match self {
            Activity::Communication => 'C',
            Activity::Algorithm => 'A',
            Activity::Evaluation => 'F',
            Activity::Idle => '.',
        }
    }

    /// The empirical-distribution histogram this activity's durations feed
    /// (the paper's `T_C` / `T_A` / `T_F` plus explicit idle time).
    pub fn metric_name(self) -> &'static str {
        match self {
            Activity::Communication => "t_c_seconds",
            Activity::Algorithm => "t_a_seconds",
            Activity::Evaluation => "t_f_seconds",
            Activity::Idle => "idle_seconds",
        }
    }

    /// Lowercase label used for Chrome-trace event names/categories.
    pub fn trace_name(self) -> &'static str {
        match self {
            Activity::Communication => "communication",
            Activity::Algorithm => "algorithm",
            Activity::Evaluation => "evaluation",
            Activity::Idle => "idle",
        }
    }
}

/// One contiguous activity of one actor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Performing actor.
    pub actor: Actor,
    /// Activity kind.
    pub activity: Activity,
    /// Start time (inclusive), seconds.
    pub start: f64,
    /// End time (exclusive), seconds.
    pub end: f64,
}

/// A recorded collection of spans.
#[derive(Debug, Clone, Default)]
pub struct SpanTrace {
    spans: Vec<Span>,
    enabled: bool,
}

impl SpanTrace {
    /// Creates an enabled trace.
    pub fn new() -> Self {
        Self {
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a disabled trace (recording is a no-op; prefer passing
    /// [`crate::NoopRecorder`] to executors instead).
    pub fn disabled() -> Self {
        Self {
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// An enabled trace over pre-collected spans (e.g. drained from an
    /// [`crate::InMemoryRecorder`]).
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Self {
            spans,
            enabled: true,
        }
    }

    /// Records a span (no-op when disabled; zero-length spans are dropped).
    pub fn record(&mut self, actor: Actor, activity: Activity, start: f64, end: f64) {
        debug_assert!(end >= start, "span ends before it starts");
        if self.enabled && end > start {
            self.spans.push(Span {
                actor,
                activity,
                start,
                end,
            });
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// End time of the latest span (0 when empty).
    pub fn horizon(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Renders the trace as CSV (`actor,activity,start,end`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("actor,activity,start,end\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{},{:?},{:.9},{:.9}\n",
                s.actor, s.activity, s.start, s.end
            ));
        }
        out
    }

    /// Renders an ASCII Gantt chart with `width` time columns, one row per
    /// actor (masters first). Glyphs: `C` communication, `A` algorithm,
    /// `F` evaluation, `.` idle.
    pub fn to_ascii(&self, width: usize) -> String {
        assert!(width >= 2);
        let horizon = self.horizon();
        if horizon <= 0.0 {
            return String::new();
        }
        let mut actors: Vec<Actor> = self.spans.iter().map(|s| s.actor).collect();
        actors.sort();
        actors.dedup();
        let label_w = actors
            .iter()
            .map(|a| a.to_string().len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for actor in actors {
            let mut row = vec!['.'; width];
            for s in self.spans.iter().filter(|s| s.actor == actor) {
                let a = ((s.start / horizon) * width as f64).floor() as usize;
                let b = (((s.end / horizon) * width as f64).ceil() as usize).min(width);
                for c in row.iter_mut().take(b).skip(a.min(width)) {
                    *c = s.activity.glyph();
                }
            }
            out.push_str(&format!(
                "{:<label_w$} |{}|\n",
                actor.to_string(),
                row.into_iter().collect::<String>()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports_horizon() {
        let mut t = SpanTrace::new();
        t.record(Actor::Master, Activity::Algorithm, 0.0, 1.0);
        t.record(Actor::Worker(0), Activity::Evaluation, 1.0, 4.0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.horizon(), 4.0);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = SpanTrace::disabled();
        t.record(Actor::Master, Activity::Algorithm, 0.0, 1.0);
        assert!(t.spans().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn zero_length_spans_dropped() {
        let mut t = SpanTrace::new();
        t.record(Actor::Master, Activity::Communication, 1.0, 1.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = SpanTrace::new();
        t.record(Actor::Worker(3), Activity::Evaluation, 0.5, 2.5);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "actor,activity,start,end");
        assert!(lines[1].starts_with("worker3,Evaluation,0.5"));
    }

    #[test]
    fn ascii_chart_shows_glyphs_per_actor() {
        let mut t = SpanTrace::new();
        t.record(Actor::Master, Activity::Algorithm, 0.0, 5.0);
        t.record(Actor::Master, Activity::Communication, 5.0, 10.0);
        t.record(Actor::Worker(0), Activity::Evaluation, 0.0, 10.0);
        let chart = t.to_ascii(10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("master"));
        assert!(lines[0].contains('A') && lines[0].contains('C'));
        assert!(lines[1].contains("worker0"));
        assert!(lines[1].matches('F').count() == 10);
    }

    #[test]
    fn actors_sort_master_first() {
        let mut t = SpanTrace::new();
        t.record(Actor::Worker(1), Activity::Evaluation, 0.0, 1.0);
        t.record(Actor::Master, Activity::Algorithm, 0.0, 1.0);
        t.record(Actor::Worker(0), Activity::Evaluation, 0.0, 1.0);
        let chart = t.to_ascii(4);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].starts_with("master"));
        assert!(lines[1].starts_with("worker0"));
        assert!(lines[2].starts_with("worker1"));
    }
}
