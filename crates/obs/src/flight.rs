//! Black-box flight recorder: a fixed-capacity ring of recent events.
//!
//! Postmortems of the kill-worker and chaos paths used to require
//! re-running the whole experiment under full tracing. The flight
//! recorder keeps the *last N* engine events/commands and `net.*` frame
//! codes in a pre-allocated ring — recording never allocates — and dumps
//! them as deterministic JSONL when something dies: worker death, a
//! chaos-fault sever, a panic, or orderly shutdown.
//!
//! Determinism: the dump is a pure function of the recorded events, and
//! under virtual time (DES, chaos loopback) the events themselves are a
//! pure function of the seed, so same-seed dumps are byte-identical —
//! the determinism gate checks exactly that.

use crate::recorder::{Recorder, TraceEdge};
use crate::span::{Activity, Actor};

/// One black-box entry: an event code plus code-specific payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Monotonic sequence number (total events ever recorded precede it).
    pub seq: u64,
    /// Recording process's clock, seconds (virtual or wall).
    pub t: f64,
    /// What happened: an `engine.events.*`/`engine.commands.*` engine code
    /// or a `net.*` frame code from the metric catalogue.
    pub code: &'static str,
    /// The eval id (`u64::MAX` when the code names none).
    pub a: u64,
    /// The worker slot (`u64::MAX` when the code names none).
    pub b: u64,
    /// Float detail (latency, deadline, offset — code-specific).
    pub x: f64,
}

struct Ring {
    /// Pre-allocated to `capacity`; pushes never reallocate.
    events: Vec<FlightEvent>,
    next_seq: u64,
}

/// The fixed-capacity ring. Concurrent (`&self`) like every sink; the
/// guard is `std::sync::Mutex` to keep `borg-obs` zero-dependency, with
/// poisoning neutralised the same way [`crate::InMemoryRecorder`] does.
pub struct FlightRecorder {
    #[expect(
        clippy::disallowed_types,
        reason = "borg-obs stays zero-dependency, so no parking_lot; a poisoned lock is taken as is"
    )]
    inner: std::sync::Mutex<Ring>,
    capacity: usize,
}

impl FlightRecorder {
    /// A ring holding the most recent `capacity` events (capacity is
    /// clamped to at least 1; memory is allocated up front).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            #[expect(
                clippy::disallowed_types,
                reason = "borg-obs stays zero-dependency, so no parking_lot; a poisoned lock is taken as is"
            )]
            inner: std::sync::Mutex::new(Ring {
                events: Vec::with_capacity(capacity),
                next_seq: 0,
            }),
            capacity,
        }
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one event, overwriting the oldest once the ring is full.
    /// Allocation-free after construction.
    pub(crate) fn record(&self, code: &'static str, t: f64, a: u64, b: u64, x: f64) {
        let mut r = self.ring();
        let seq = r.next_seq;
        r.next_seq += 1;
        let ev = FlightEvent {
            seq,
            t,
            code,
            a,
            b,
            x,
        };
        if r.events.len() < self.capacity {
            r.events.push(ev);
        } else {
            let cap = self.capacity;
            r.events[(seq % cap as u64) as usize] = ev;
        }
    }

    /// Total events ever recorded (≥ the number retained).
    pub fn recorded(&self) -> u64 {
        self.ring().next_seq
    }

    /// The retained events in sequence order (oldest first).
    pub fn events(&self) -> Vec<FlightEvent> {
        let r = self.ring();
        let mut evs = r.events.clone();
        evs.sort_by_key(|e| e.seq);
        evs
    }

    /// Deterministic JSONL dump: a header line naming the trigger and the
    /// drop count, then one line per retained event, oldest first. Equal
    /// event histories produce byte-identical dumps.
    pub fn dump_jsonl(&self, trigger: &str) -> String {
        let r = self.ring();
        let mut evs = r.events.clone();
        evs.sort_by_key(|e| e.seq);
        let dropped = r.next_seq - evs.len() as u64;
        let mut out = format!(
            "{{\"flight\":\"borg-flight/v1\",\"trigger\":\"{}\",\"recorded\":{},\"dropped\":{}}}\n",
            crate::export::json_escape(trigger),
            r.next_seq,
            dropped
        );
        for e in evs {
            out.push_str(&format!(
                "{{\"seq\":{},\"t\":{},\"code\":\"{}\",\"a\":{},\"b\":{},\"x\":{}}}\n",
                e.seq,
                crate::export::json_f64(e.t),
                crate::export::json_escape(e.code),
                e.a,
                e.b,
                crate::export::json_f64(e.x)
            ));
        }
        out
    }
}

/// Adapter that layers a [`FlightRecorder`] over any sink: all metric and
/// span hooks forward to `inner` untouched, while [`Recorder::flight`]
/// lands in the ring. Lets the engine stay generic over one `rec`
/// parameter while the process owns the black box.
pub struct WithFlight<'a, R: Recorder + ?Sized> {
    inner: &'a R,
    ring: &'a FlightRecorder,
}

impl<'a, R: Recorder + ?Sized> WithFlight<'a, R> {
    /// Wraps `inner`, routing flight events into `ring`.
    pub fn new(inner: &'a R, ring: &'a FlightRecorder) -> Self {
        WithFlight { inner, ring }
    }

    /// The wrapped ring (for dumping at trigger points).
    pub fn ring(&self) -> &FlightRecorder {
        self.ring
    }
}

impl<R: Recorder + ?Sized> Recorder for WithFlight<'_, R> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.inner.counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.inner.gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.inner.observe(name, value);
    }

    fn span(&self, actor: Actor, activity: Activity, start: f64, end: f64) {
        self.inner.span(actor, activity, start, end);
    }

    fn trace_edge(&self, edge: TraceEdge) {
        self.inner.trace_edge(edge);
    }

    fn flight(&self, code: &'static str, t: f64, a: u64, b: u64, x: f64) {
        self.ring.record(code, t, a, b, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{InMemoryRecorder, NoopRecorder};

    #[test]
    fn ring_overwrites_oldest_and_dumps_in_order() {
        let ring = FlightRecorder::new(3);
        for i in 0..5u64 {
            ring.record("engine.events.result_arrived", i as f64, i, 0, 0.0);
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.recorded(), 5);
        let dump = ring.dump_jsonl("worker_death");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"trigger\":\"worker_death\""));
        assert!(lines[0].contains("\"recorded\":5"));
        assert!(lines[0].contains("\"dropped\":2"));
        assert!(lines[1].contains("\"seq\":2"));
        assert!(lines[3].contains("\"seq\":4"));
    }

    #[test]
    fn identical_histories_dump_identically() {
        let a = FlightRecorder::new(8);
        let b = FlightRecorder::new(8);
        for ring in [&a, &b] {
            for i in 0..20u64 {
                ring.record("engine.commands.dispatch", i as f64 * 0.5, i, i % 3, 0.125);
            }
        }
        assert_eq!(a.dump_jsonl("sever"), b.dump_jsonl("sever"));
    }

    #[test]
    fn with_flight_forwards_metrics_and_captures_flight() {
        let inner = InMemoryRecorder::new();
        let ring = FlightRecorder::new(4);
        let rec = WithFlight::new(&inner, &ring);
        rec.counter("engine.reissues", 1);
        rec.flight("engine.events.worker_died", 1.5, u64::MAX, 2, 0.0);
        assert_eq!(inner.snapshot().counters["engine.reissues"], 1);
        assert_eq!(ring.events().len(), 1);
        assert_eq!(ring.events()[0].b, 2);
        assert!(rec.enabled());

        // Over the noop sink the ring still collects.
        let rec2 = WithFlight::new(&NoopRecorder, &ring);
        rec2.flight("engine.events.worker_died", 2.0, u64::MAX, 1, 0.0);
        assert_eq!(ring.recorded(), 2);
        assert!(!rec2.enabled());
    }
}
