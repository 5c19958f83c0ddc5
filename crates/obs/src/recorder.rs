//! The [`Recorder`] facade and its two sinks.
//!
//! Instrumented code (the protocol engine, all three executors) takes
//! `rec: &R` with `R: Recorder + ?Sized` and calls the facade
//! unconditionally; the sink decides what happens. [`NoopRecorder`]'s
//! methods are the trait's empty defaults, so with it the hooks
//! monomorphize to nothing — observation is free unless requested.
//! [`InMemoryRecorder`] is the concurrent collecting sink.
//!
//! The facade is deliberately *read-only with respect to the experiment*:
//! recorders receive values, never influence control flow, RNG draws or
//! event ordering — the determinism gate (`cargo xtask determinism`)
//! verifies a run with the in-memory sink attached is bit-identical to one
//! with the no-op sink.

use crate::hist::Histogram;
use crate::span::{Activity, Actor, Span, SpanTrace};
use std::collections::BTreeMap;

/// Which leg of a cross-process exchange a [`TraceEdge`] marks.
///
/// A completed evaluation produces the four-point NTP-style quad
/// `DispatchSent` (master) → `WorkReceived` (worker) → `ResultSent`
/// (worker) → `ResultReceived` (master); `ClockSample` carries a
/// heartbeat-RTT clock-offset estimate instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceEdgeKind {
    /// Master handed a `Work` frame to the wire.
    DispatchSent,
    /// Worker pulled the `Work` frame off the wire.
    WorkReceived,
    /// Worker handed the `Outcome` frame to the wire.
    ResultSent,
    /// Master pulled the `Outcome` frame off the wire.
    ResultReceived,
    /// A heartbeat round-trip: `local_t` is the measured RTT and
    /// `remote_t` the estimated master-minus-local clock offset.
    ClockSample,
}

impl TraceEdgeKind {
    /// Stable lowercase label used by the shard JSONL format.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TraceEdgeKind::DispatchSent => "dispatch_sent",
            TraceEdgeKind::WorkReceived => "work_received",
            TraceEdgeKind::ResultSent => "result_sent",
            TraceEdgeKind::ResultReceived => "result_received",
            TraceEdgeKind::ClockSample => "clock_sample",
        }
    }

    /// Inverse of [`TraceEdgeKind::label`].
    pub(crate) fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "dispatch_sent" => TraceEdgeKind::DispatchSent,
            "work_received" => TraceEdgeKind::WorkReceived,
            "result_sent" => TraceEdgeKind::ResultSent,
            "result_received" => TraceEdgeKind::ResultReceived,
            "clock_sample" => TraceEdgeKind::ClockSample,
            _ => return None,
        })
    }
}

/// One timestamped point of a distributed trace, recorded on whichever
/// process observed it. The trace-merge step joins edges across process
/// shards on `(trace_id, eval_id, attempt)` to reconstruct the causal
/// span chain of every evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEdge {
    /// Which leg this edge marks.
    pub kind: TraceEdgeKind,
    /// Trace identity (the evaluation id for dispatch/result legs, a
    /// probe sequence number for clock samples).
    pub trace_id: u64,
    /// Evaluation id (`u64::MAX` for clock samples).
    pub eval_id: u64,
    /// Dispatch attempt (0 = first issue).
    pub attempt: u32,
    /// Worker slot involved (`u64::MAX` when unknown).
    pub worker: u64,
    /// Timestamp on the recording process's own clock, seconds.
    pub local_t: f64,
    /// The peer's clock reading carried in the frame (the `sent_at`
    /// field), or the offset estimate for [`TraceEdgeKind::ClockSample`].
    pub remote_t: f64,
}

/// The instrumentation facade: counters, gauges, histograms, spans.
///
/// All methods take `&self` so one recorder can be shared by a master
/// loop and its transports; every method has an empty default body.
pub trait Recorder {
    /// Whether this sink keeps anything (lets callers skip building
    /// expensive labels; the hooks themselves need no gating).
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records `value` into the named log-bucketed histogram.
    fn observe(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records one activity span. Implementations also feed the span's
    /// duration into the activity's histogram (see
    /// `Activity::metric_name`) so `T_F`/`T_C`/`T_A` distributions fall
    /// out of tracing for free.
    fn span(&self, actor: Actor, activity: Activity, start: f64, end: f64) {
        let _ = (actor, activity, start, end);
    }

    /// Records one distributed-trace edge (a cross-process send/receive
    /// point or a clock-offset sample). Like every facade hook this is
    /// observation only — sinks collect edges for the trace-merge step.
    fn trace_edge(&self, edge: TraceEdge) {
        let _ = edge;
    }

    /// Records one black-box flight event: `code` names what happened
    /// (an `engine.events.*`/`engine.commands.*` engine code or a `net.*`
    /// frame code), `t` is the recording process's clock, `a` is the eval
    /// id and `b` the worker slot (`u64::MAX` where a code has none), and
    /// `x` is a code-specific float detail.
    /// Default is a no-op; [`crate::flight::WithFlight`] routes it into a
    /// fixed-capacity ring for postmortem dumps.
    fn flight(&self, code: &'static str, t: f64, a: u64, b: u64, x: f64) {
        let _ = (code, t, a, b, x);
    }
}

/// The default sink: every hook is the trait's empty default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A point-in-time copy of an [`InMemoryRecorder`]'s metric state.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauges by name (last written value).
    pub gauges: BTreeMap<&'static str, f64>,
    /// Log-bucketed histograms by name.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters add, histograms merge
    /// bucket-wise, gauges are last-write-wins (`other` overwrites, since
    /// it is the later snapshot in merge order).
    ///
    /// This is how per-job recorders from `borg-runner` fan-ins become one
    /// deterministic snapshot: each parallel job records into its own
    /// [`InMemoryRecorder`], and the caller merges the snapshots **in job
    /// index order**. Because merge order is fixed, the merged snapshot —
    /// and every export derived from it — is bit-identical regardless of
    /// how many workers ran the jobs.
    /// Schema stability: every key present in *either* side survives the
    /// merge — zero-count histograms and gauges that were set and later
    /// reset to a neutral value are carried through rather than elided —
    /// so the merged JSONL line set is identical across `jobs=1` and
    /// `jobs=N` partitionings of the same work.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name, *value);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name).or_default().merge(hist);
        }
    }

    /// The change from `prev` (an earlier snapshot of the same recorder)
    /// to `self`: counters subtract, histograms bucket-diff (see
    /// `Histogram::diff`), gauges report their current value.
    ///
    /// Every key of `self` is present in the delta even when nothing
    /// changed — the live metrics tap relies on a stable per-tick schema,
    /// so zero-delta counters and zero-count histograms are kept, not
    /// dropped.
    pub fn delta_since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (name, value) in &self.counters {
            let before = prev.counters.get(name).copied().unwrap_or(0);
            out.counters.insert(name, value.saturating_sub(before));
        }
        for (name, value) in &self.gauges {
            out.gauges.insert(name, *value);
        }
        for (name, hist) in &self.histograms {
            let before = prev.histograms.get(name);
            let diff = match before {
                Some(b) => hist.diff(b),
                None => hist.clone(),
            };
            out.histograms.insert(name, diff);
        }
        out
    }
}

#[derive(Debug, Default)]
struct Store {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: Vec<Span>,
    trace_edges: Vec<TraceEdge>,
}

/// The collecting sink: concurrent (`&self`, internally mutex-guarded)
/// and deterministic (pure accumulation, no clock or RNG access).
///
/// Zero-dependency by design, so the guard is `std::sync::Mutex` rather
/// than the workspace-standard `parking_lot` (poisoning is neutralised by
/// taking the data from a poisoned lock — all stored state is valid at
/// every instruction boundary).
pub struct InMemoryRecorder {
    #[expect(
        clippy::disallowed_types,
        reason = "borg-obs stays zero-dependency, so no parking_lot; a poisoned lock is taken as is"
    )]
    inner: std::sync::Mutex<Store>,
    keep_spans: bool,
}

impl Default for InMemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryRecorder {
    /// A recorder keeping everything, including every span.
    pub fn new() -> Self {
        Self::keeping_spans(true)
    }

    /// A recorder that keeps metrics (counters, gauges, histograms —
    /// including the per-activity duration histograms derived from spans)
    /// but stores no span list. Use for long sweeps where a full timeline
    /// would be unbounded memory.
    pub fn metrics_only() -> Self {
        Self::keeping_spans(false)
    }

    fn keeping_spans(keep_spans: bool) -> Self {
        InMemoryRecorder {
            #[expect(
                clippy::disallowed_types,
                reason = "borg-obs stays zero-dependency, so no parking_lot; a poisoned lock is taken as is"
            )]
            inner: std::sync::Mutex::new(Store::default()),
            keep_spans,
        }
    }

    fn store(&self) -> std::sync::MutexGuard<'_, Store> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Copies out the current metric state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let s = self.store();
        MetricsSnapshot {
            counters: s.counters.clone(),
            gauges: s.gauges.clone(),
            histograms: s.histograms.clone(),
        }
    }

    /// Copies the stored spans into a renderable [`SpanTrace`].
    pub fn span_trace(&self) -> SpanTrace {
        SpanTrace::from_spans(self.store().spans.clone())
    }

    /// Moves the recorded trace edges out (collection continues after).
    pub fn take_trace_edges(&self) -> Vec<TraceEdge> {
        std::mem::take(&mut self.store().trace_edges)
    }
}

impl Recorder for InMemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &'static str, delta: u64) {
        *self.store().counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.store().gauges.insert(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.store()
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    fn span(&self, actor: Actor, activity: Activity, start: f64, end: f64) {
        debug_assert!(end >= start, "span ends before it starts");
        if end <= start {
            return; // zero-length spans carry no time; drop like SpanTrace
        }
        let mut s = self.store();
        s.histograms
            .entry(activity.metric_name())
            .or_default()
            .record(end - start);
        if self.keep_spans {
            s.spans.push(Span {
                actor,
                activity,
                start,
                end,
            });
        }
    }

    fn trace_edge(&self, edge: TraceEdge) {
        self.store().trace_edges.push(edge);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.counter("x", 1);
        rec.gauge("y", 2.0);
        rec.observe("z", 3.0);
        rec.span(Actor::Master, Activity::Algorithm, 0.0, 1.0);
    }

    #[test]
    fn in_memory_recorder_accumulates_everything() {
        let rec = InMemoryRecorder::new();
        rec.counter("engine.reissues", 2);
        rec.counter("engine.reissues", 3);
        rec.gauge("master.utilization", 0.5);
        rec.gauge("master.utilization", 0.9);
        rec.observe("engine.deadline_slack_seconds", 0.25);
        rec.span(Actor::Worker(1), Activity::Evaluation, 1.0, 1.5);
        // A zero-length span carries no time: neither stored nor counted.
        rec.span(Actor::Master, Activity::Algorithm, 2.0, 2.0);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["engine.reissues"], 5);
        assert_eq!(snap.gauges["master.utilization"], 0.9);
        assert_eq!(snap.histograms["engine.deadline_slack_seconds"].count(), 1);
        // The span fed both the span list and the t_f histogram.
        assert_eq!(snap.histograms["t_f_seconds"].count(), 1);
        assert_eq!(rec.span_trace().spans().len(), 1);
        assert!(!snap.histograms.contains_key("t_a_seconds"));
    }

    #[test]
    fn span_limit_keeps_histograms_but_drops_spans() {
        let rec = InMemoryRecorder::metrics_only();
        for i in 0..10 {
            rec.span(Actor::Master, Activity::Algorithm, i as f64, i as f64 + 0.5);
        }
        // `metrics_only` stores no span, yet each one feeds its histogram.
        assert_eq!(rec.span_trace().spans().len(), 0);
        assert_eq!(rec.snapshot().histograms["t_a_seconds"].count(), 10);
    }

    #[test]
    fn snapshot_merge_adds_counters_merges_histograms_last_wins_gauges() {
        let a = InMemoryRecorder::new();
        a.counter("engine.reissues", 2);
        a.gauge("master.utilization", 0.5);
        a.observe("t_f_seconds", 1.0);

        let b = InMemoryRecorder::new();
        b.counter("engine.reissues", 3);
        b.counter("engine.evaluations", 7);
        b.gauge("master.utilization", 0.9);
        b.observe("t_f_seconds", 2.0);
        b.observe("t_a_seconds", 0.25);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counters["engine.reissues"], 5);
        assert_eq!(merged.counters["engine.evaluations"], 7);
        assert_eq!(merged.gauges["master.utilization"], 0.9);
        assert_eq!(merged.histograms["t_f_seconds"].count(), 2);
        assert_eq!(merged.histograms["t_f_seconds"].sum(), 3.0);
        assert_eq!(merged.histograms["t_a_seconds"].count(), 1);
    }

    #[test]
    fn index_ordered_merge_equals_shared_recorder_counters() {
        // The runner contract: per-job recorders merged in index order
        // carry the same counter totals as one shared recorder would.
        let shared = InMemoryRecorder::new();
        let mut merged = MetricsSnapshot::default();
        for job in 0..5u64 {
            let per_job = InMemoryRecorder::new();
            for rec in [&shared, &per_job] {
                rec.counter("engine.evaluations", job + 1);
                rec.observe("t_f_seconds", job as f64);
            }
            merged.merge(&per_job.snapshot());
        }
        let whole = shared.snapshot();
        assert_eq!(merged.counters, whole.counters);
        assert_eq!(
            merged.histograms["t_f_seconds"].count(),
            whole.histograms["t_f_seconds"].count()
        );
    }

    #[test]
    fn merge_keeps_zero_count_histograms_and_reset_gauges() {
        // jobs=N regression: a job whose histogram ended up empty (e.g. a
        // replicate that observed nothing into it) and a gauge that was
        // set then reset to a neutral value must still appear in the
        // merged snapshot, or the per-replicate JSONL schema would differ
        // between jobs=1 and jobs=N.
        let mut empty_hist = MetricsSnapshot::default();
        empty_hist
            .histograms
            .insert("t_c_seconds", Histogram::new());
        empty_hist.gauges.insert("engine.outstanding", 0.0);

        let mut merged = MetricsSnapshot::default();
        merged.merge(&empty_hist);
        assert!(merged.histograms.contains_key("t_c_seconds"));
        assert_eq!(merged.histograms["t_c_seconds"].count(), 0);
        assert_eq!(merged.gauges["engine.outstanding"], 0.0);

        // And a later shard with data folds into the placeholder.
        let b = InMemoryRecorder::new();
        b.observe("t_c_seconds", 0.5);
        merged.merge(&b.snapshot());
        assert_eq!(merged.histograms["t_c_seconds"].count(), 1);
    }

    #[test]
    fn merge_order_only_affects_gauges_not_schema() {
        // Merge-ordering regression: the key *set* (the JSONL schema) is
        // order-independent; only gauge values follow merge order
        // (last-write-wins by contract).
        let a = InMemoryRecorder::new();
        a.counter("engine.evaluations", 1);
        a.gauge("engine.outstanding", 3.0);
        a.observe("t_f_seconds", 1.0);
        let b = InMemoryRecorder::new();
        b.counter("engine.reissues", 1);
        b.gauge("engine.outstanding", 0.0);
        b.observe("t_c_seconds", 0.1);

        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());

        assert_eq!(
            ab.counters.keys().collect::<Vec<_>>(),
            ba.counters.keys().collect::<Vec<_>>()
        );
        assert_eq!(
            ab.gauges.keys().collect::<Vec<_>>(),
            ba.gauges.keys().collect::<Vec<_>>()
        );
        assert_eq!(
            ab.histograms.keys().collect::<Vec<_>>(),
            ba.histograms.keys().collect::<Vec<_>>()
        );
        assert_eq!(ab.counters, ba.counters);
        // Gauge values differ by order — by contract, not by accident.
        assert_eq!(ab.gauges["engine.outstanding"], 0.0);
        assert_eq!(ba.gauges["engine.outstanding"], 3.0);
    }

    #[test]
    fn delta_since_keeps_stable_schema() {
        let rec = InMemoryRecorder::new();
        rec.counter("net.frames_sent", 5);
        rec.gauge("engine.outstanding", 2.0);
        rec.observe("t_f_seconds", 1.0);
        let first = rec.snapshot();

        // Nothing new for t_f; a new counter appears.
        rec.counter("net.frames_sent", 3);
        let second = rec.snapshot();
        let delta = second.delta_since(&first);
        assert_eq!(delta.counters["net.frames_sent"], 3);
        assert_eq!(delta.histograms["t_f_seconds"].count(), 0);
        assert!(delta.gauges.contains_key("engine.outstanding"));
        // Same keys as the full snapshot — the tap's schema guarantee.
        assert_eq!(
            delta.counters.keys().collect::<Vec<_>>(),
            second.counters.keys().collect::<Vec<_>>()
        );
        assert_eq!(
            delta.histograms.keys().collect::<Vec<_>>(),
            second.histograms.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn trace_edges_accumulate_and_drain() {
        let rec = InMemoryRecorder::new();
        rec.trace_edge(TraceEdge {
            kind: TraceEdgeKind::DispatchSent,
            trace_id: 7,
            eval_id: 7,
            attempt: 0,
            worker: 1,
            local_t: 0.5,
            remote_t: 0.0,
        });
        let drained = rec.take_trace_edges();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].kind, TraceEdgeKind::DispatchSent);
        assert!(rec.take_trace_edges().is_empty());
        // The noop sink ignores edges and flight events silently.
        NoopRecorder.trace_edge(drained[0]);
        NoopRecorder.flight("engine.events.result_arrived", 1.0, 7, 1, 0.0);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = InMemoryRecorder::new();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..100 {
                        rec.counter("hits", 1);
                        rec.span(
                            Actor::Worker(w),
                            Activity::Evaluation,
                            i as f64,
                            i as f64 + 1.0,
                        );
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counters["hits"], 400);
        assert_eq!(rec.span_trace().spans().len(), 400);
    }
}
