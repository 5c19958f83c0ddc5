//! Per-process trace shards and the deterministic cross-process merge.
//!
//! Since the deployment spans processes, no single recorder sees both
//! sides of a dispatch/result exchange — the `T_C` term of the paper's
//! `P_UB = T_F/(2·T_C + T_A)` frontier is exactly the part one process
//! cannot observe end-to-end. Each process therefore dumps the
//! [`TraceEdge`]s it *did* observe as a [`TraceShard`] (deterministic
//! JSONL), and [`merge_shards`] joins them on `(eval_id, attempt)` into
//! per-evaluation causal chains:
//!
//! ```text
//! master dispatch ──t_c_out──▶ worker evaluate ──t_c_back──▶ master consume
//!      [t0 ............ t1]        [t1 .. t2]       [t2 ............ t3]
//! ```
//!
//! Worker clocks are aligned onto the master clock before the join. The
//! offset per worker comes from heartbeat RTT samples
//! ([`TraceEdgeKind::ClockSample`], midpoint estimator) when available,
//! falling back to the NTP-style estimate from each complete quad
//! `((t1−t0)+(t2−t3))/2`; the median over samples is used, making the
//! alignment robust to asymmetric outliers and — because the median of a
//! fixed sample list is deterministic — keeping the merged trace
//! byte-reproducible.

use crate::export::{json_escape, json_f64};
use crate::recorder::{TraceEdge, TraceEdgeKind};
use std::collections::BTreeMap;

/// Shard format version tag (the JSONL header's `shard` field).
pub(crate) const SHARD_SCHEMA: &str = "borg-trace-shard/v1";

/// The trace edges one process observed, plus its identity.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceShard {
    /// Display name (`master`, `worker0`, …).
    pub process: String,
    /// Worker slot, or `None` for the master shard.
    pub worker: Option<u64>,
    /// Observed edges, in any order (serialisation sorts them).
    pub edges: Vec<TraceEdge>,
}

/// Deterministic edge sort key: joins group before time so the shard
/// reads chronologically *per evaluation*.
fn edge_key(e: &TraceEdge) -> (u64, u32, u8, u64, u64) {
    let kind_rank = match e.kind {
        TraceEdgeKind::DispatchSent => 0,
        TraceEdgeKind::WorkReceived => 1,
        TraceEdgeKind::ResultSent => 2,
        TraceEdgeKind::ResultReceived => 3,
        TraceEdgeKind::ClockSample => 4,
    };
    (
        e.eval_id,
        e.attempt,
        kind_rank,
        e.trace_id,
        e.local_t.to_bits(),
    )
}

impl TraceShard {
    /// A shard over pre-collected edges.
    pub fn new(process: impl Into<String>, worker: Option<u64>, edges: Vec<TraceEdge>) -> Self {
        TraceShard {
            process: process.into(),
            worker,
            edges,
        }
    }

    /// Serialises the shard as JSONL: one header line, then one line per
    /// edge in a canonical order. Byte-deterministic for equal contents.
    pub fn to_jsonl(&self) -> String {
        let mut edges = self.edges.clone();
        edges.sort_by_key(edge_key);
        let worker = match self.worker {
            Some(w) => w.to_string(),
            None => "null".to_string(),
        };
        let mut out = format!(
            "{{\"shard\":\"{SHARD_SCHEMA}\",\"process\":\"{}\",\"worker\":{worker},\"edges\":{}}}\n",
            json_escape(&self.process),
            edges.len()
        );
        for e in &edges {
            out.push_str(&format!(
                "{{\"edge\":\"{}\",\"trace\":{},\"eval\":{},\"attempt\":{},\"worker\":{},\
                 \"local_t\":{},\"remote_t\":{}}}\n",
                e.kind.label(),
                e.trace_id,
                e.eval_id,
                e.attempt,
                e.worker,
                json_f64(e.local_t),
                json_f64(e.remote_t)
            ));
        }
        out
    }

    /// Parses a shard back from its JSONL form.
    pub fn from_jsonl(text: &str) -> Result<TraceShard, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty shard file")?;
        if field_str(header, "shard") != Some(SHARD_SCHEMA) {
            return Err(format!("not a {SHARD_SCHEMA} header: {header}"));
        }
        let process = field_str(header, "process")
            .ok_or_else(|| format!("shard header missing process: {header}"))?
            .to_string();
        let worker = match field_raw(header, "worker") {
            Some("null") | None => None,
            Some(raw) => Some(
                raw.parse::<u64>()
                    .map_err(|e| format!("bad shard worker field `{raw}`: {e}"))?,
            ),
        };
        let mut edges = Vec::new();
        for (n, line) in lines.enumerate() {
            let parsed = (|| {
                Some(TraceEdge {
                    kind: TraceEdgeKind::from_label(field_str(line, "edge")?)?,
                    trace_id: field_u64(line, "trace")?,
                    eval_id: field_u64(line, "eval")?,
                    attempt: field_u64(line, "attempt")? as u32,
                    worker: field_u64(line, "worker")?,
                    local_t: field_f64(line, "local_t")?,
                    remote_t: field_f64(line, "remote_t")?,
                })
            })();
            match parsed {
                Some(e) => edges.push(e),
                None => return Err(format!("malformed shard edge line {}: {line}", n + 2)),
            }
        }
        Ok(TraceShard {
            process,
            worker,
            edges,
        })
    }
}

fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let raw = field_raw(line, key)?;
    raw.strip_prefix('"')?.strip_suffix('"')
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field_raw(line, key)?.parse().ok()
}

fn field_f64(line: &str, key: &str) -> Option<f64> {
    field_raw(line, key)?.parse().ok()
}

/// One reconstructed per-evaluation causal chain, on the master clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalChain {
    /// Evaluation id.
    pub eval_id: u64,
    /// Dispatch attempt that completed.
    pub attempt: u32,
    /// Worker slot that evaluated it.
    pub worker: u64,
    /// Master handed the dispatch to the wire.
    pub t0: f64,
    /// Worker received it (aligned to the master clock).
    pub t1: f64,
    /// Worker sent the result (aligned to the master clock).
    pub t2: f64,
    /// Master consumed the result.
    pub t3: f64,
}

impl EvalChain {
    /// Outbound communication time `t1 − t0`.
    pub(crate) fn t_c_out(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Evaluation time `t2 − t1` (offset-invariant: both endpoints moved
    /// by the same alignment).
    pub(crate) fn t_f(&self) -> f64 {
        self.t2 - self.t1
    }

    /// Return communication time `t3 − t2`.
    pub(crate) fn t_c_back(&self) -> f64 {
        self.t3 - self.t2
    }
}

/// The result of merging all process shards of one run.
#[derive(Debug, Clone, Default)]
pub struct MergedTrace {
    /// Complete chains (all four legs present), sorted by
    /// `(eval_id, attempt)`.
    pub chains: Vec<EvalChain>,
    /// Master-minus-worker clock offset applied per worker shard.
    pub offsets: BTreeMap<u64, f64>,
    /// Heartbeat clock samples that fed each worker's offset.
    pub clock_samples: BTreeMap<u64, usize>,
    /// `(eval, attempt)` groups that were missing at least one leg
    /// (lost to a fault, a kill, or a shard that never flushed).
    pub incomplete: usize,
}

/// Deterministic median of a non-empty sample list (upper median).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[derive(Default, Clone, Copy)]
struct Quad {
    t0: Option<f64>,
    t1: Option<f64>,
    t2: Option<f64>,
    t3: Option<f64>,
    worker: u64,
}

/// Joins per-process shards into one causally-linked trace.
///
/// Exactly one shard must have `worker: None` (the master). Worker
/// shards are clock-aligned onto the master, then every `(eval_id,
/// attempt)` group with all four legs becomes an [`EvalChain`].
pub fn merge_shards(shards: &[TraceShard]) -> Result<MergedTrace, String> {
    let masters: Vec<&TraceShard> = shards.iter().filter(|s| s.worker.is_none()).collect();
    if masters.len() != 1 {
        return Err(format!(
            "expected exactly one master shard (worker:null), found {}",
            masters.len()
        ));
    }
    let master = masters[0];

    // Group master-side legs by (eval, attempt).
    let mut quads: BTreeMap<(u64, u32), Quad> = BTreeMap::new();
    for e in &master.edges {
        let q = quads.entry((e.eval_id, e.attempt)).or_default();
        match e.kind {
            TraceEdgeKind::DispatchSent => {
                q.t0 = Some(e.local_t);
                q.worker = e.worker;
            }
            TraceEdgeKind::ResultReceived => {
                q.t3 = Some(e.local_t);
                q.worker = e.worker;
            }
            _ => {}
        }
    }

    let mut merged = MergedTrace::default();

    // Per worker shard: raw (unaligned) worker-side legs + clock samples.
    for shard in shards.iter().filter(|s| s.worker.is_some()) {
        let w = shard.worker.unwrap_or(u64::MAX);
        let mut worker_legs: BTreeMap<(u64, u32), (Option<f64>, Option<f64>)> = BTreeMap::new();
        let mut samples: Vec<f64> = Vec::new();
        for e in &shard.edges {
            match e.kind {
                TraceEdgeKind::WorkReceived => {
                    worker_legs.entry((e.eval_id, e.attempt)).or_default().0 = Some(e.local_t);
                }
                TraceEdgeKind::ResultSent => {
                    worker_legs.entry((e.eval_id, e.attempt)).or_default().1 = Some(e.local_t);
                }
                TraceEdgeKind::ClockSample => samples.push(e.remote_t),
                _ => {}
            }
        }
        merged.clock_samples.insert(w, samples.len());

        // Offset: heartbeat samples first, NTP quads as fallback, else 0.
        let offset = if !samples.is_empty() {
            median(samples)
        } else {
            let mut quad_offsets = Vec::new();
            for (key, &(t1w, t2w)) in &worker_legs {
                if let (Some(q), Some(t1w), Some(t2w)) = (quads.get(key), t1w, t2w) {
                    if let (Some(t0), Some(t3)) = (q.t0, q.t3) {
                        if q.worker == w {
                            quad_offsets.push(((t0 - t1w) + (t3 - t2w)) / 2.0);
                        }
                    }
                }
            }
            if quad_offsets.is_empty() {
                0.0
            } else {
                median(quad_offsets)
            }
        };
        merged.offsets.insert(w, offset);

        for (key, (t1w, t2w)) in worker_legs {
            let q = quads.entry(key).or_default();
            if q.worker == u64::MAX || q.t0.is_none() {
                q.worker = w;
            }
            if q.worker == w {
                q.t1 = t1w.map(|t| t + offset);
                q.t2 = t2w.map(|t| t + offset);
            }
        }
    }

    for ((eval_id, attempt), q) in quads {
        match (q.t0, q.t1, q.t2, q.t3) {
            (Some(t0), Some(t1), Some(t2), Some(t3)) => merged.chains.push(EvalChain {
                eval_id,
                attempt,
                worker: q.worker,
                t0,
                t1,
                t2,
                t3,
            }),
            _ => merged.incomplete += 1,
        }
    }
    Ok(merged)
}

impl MergedTrace {
    /// Renders the merged trace as Chrome Trace Event Format JSON: the
    /// master is pid 1, worker `w` is pid `w + 2`; every chain becomes a
    /// `dispatch` → `evaluate` → `consume` span triple with
    /// `t_c_out`/`t_f`/`t_c_back` in the event args. Timestamps are
    /// microseconds on the (aligned) master clock.
    pub fn chrome_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        events.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"master\"}}"
                .to_string(),
        );
        let mut workers: Vec<u64> = self.chains.iter().map(|c| c.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        for &w in &workers {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"worker{w}\"}}}}",
                w + 2
            ));
        }
        for c in &self.chains {
            let args = format!(
                "{{\"eval\":{},\"attempt\":{},\"worker\":{},\"t_c_out\":{},\"t_f\":{},\
                 \"t_c_back\":{}}}",
                c.eval_id,
                c.attempt,
                c.worker,
                json_f64(c.t_c_out()),
                json_f64(c.t_f()),
                json_f64(c.t_c_back())
            );
            let legs = [
                ("dispatch", 1, c.t0, c.t1),
                ("evaluate", c.worker as usize + 2, c.t1, c.t2),
                ("consume", 1, c.t2, c.t3),
            ];
            for (name, pid, start, end) in legs {
                events.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"eval\",\"ph\":\"X\",\
                     \"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":0,\"args\":{args}}}",
                    start * 1e6,
                    (end - start).max(0.0) * 1e6
                ));
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// `eval_id → number of complete chains`, for asserting the
    /// one-connected-tree-per-completed-eval property.
    pub fn chains_per_eval(&self) -> BTreeMap<u64, usize> {
        let mut out = BTreeMap::new();
        for c in &self.chains {
            *out.entry(c.eval_id).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(kind: TraceEdgeKind, eval: u64, attempt: u32, worker: u64, t: f64) -> TraceEdge {
        TraceEdge {
            kind,
            trace_id: eval,
            eval_id: eval,
            attempt,
            worker,
            local_t: t,
            remote_t: 0.0,
        }
    }

    /// Master + one worker whose clock is `off` seconds behind.
    fn two_process_run(off: f64) -> Vec<TraceShard> {
        let mut master = Vec::new();
        let mut worker = Vec::new();
        for eval in 0..3u64 {
            let base = eval as f64;
            master.push(edge(TraceEdgeKind::DispatchSent, eval, 0, 0, base));
            worker.push(edge(
                TraceEdgeKind::WorkReceived,
                eval,
                0,
                0,
                base + 0.1 - off,
            ));
            worker.push(edge(
                TraceEdgeKind::ResultSent,
                eval,
                0,
                0,
                base + 0.6 - off,
            ));
            master.push(edge(TraceEdgeKind::ResultReceived, eval, 0, 0, base + 0.7));
        }
        vec![
            TraceShard::new("master", None, master),
            TraceShard::new("worker0", Some(0), worker),
        ]
    }

    #[test]
    fn shard_jsonl_round_trips_and_is_deterministic() {
        let shards = two_process_run(5.0);
        for s in &shards {
            let text = s.to_jsonl();
            let back = TraceShard::from_jsonl(&text).expect("parse");
            assert_eq!(back.process, s.process);
            assert_eq!(back.worker, s.worker);
            assert_eq!(back.edges.len(), s.edges.len());
            assert_eq!(back.to_jsonl(), text);
        }
        assert!(TraceShard::from_jsonl("nonsense\n").is_err());
        assert!(TraceShard::from_jsonl("").is_err());
    }

    #[test]
    fn merge_aligns_worker_clock_via_ntp_quads() {
        let merged = merge_shards(&two_process_run(5.0)).expect("merge");
        assert_eq!(merged.chains.len(), 3);
        assert_eq!(merged.incomplete, 0);
        let off = merged.offsets[&0];
        assert!((off - 5.0).abs() < 1e-9, "offset {off}");
        for c in &merged.chains {
            assert!((c.t_c_out() - 0.1).abs() < 1e-9);
            assert!((c.t_f() - 0.5).abs() < 1e-9);
            assert!((c.t_c_back() - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn heartbeat_samples_beat_quads_for_offset() {
        let mut shards = two_process_run(5.0);
        // Three explicit clock samples around 5.0; median wins.
        for (i, est) in [4.9, 5.0, 5.2].iter().enumerate() {
            shards[1].edges.push(TraceEdge {
                kind: TraceEdgeKind::ClockSample,
                trace_id: i as u64,
                eval_id: u64::MAX,
                attempt: 0,
                worker: 0,
                local_t: 0.01,
                remote_t: *est,
            });
        }
        let merged = merge_shards(&shards).expect("merge");
        assert_eq!(merged.clock_samples[&0], 3);
        assert_eq!(merged.offsets[&0], 5.0);
    }

    #[test]
    fn incomplete_groups_are_counted_not_fabricated() {
        let mut shards = two_process_run(0.0);
        // An eval dispatched but never completed (worker died mid-eval).
        shards[0]
            .edges
            .push(edge(TraceEdgeKind::DispatchSent, 99, 0, 0, 50.0));
        shards[1]
            .edges
            .push(edge(TraceEdgeKind::WorkReceived, 99, 0, 0, 50.1));
        let merged = merge_shards(&shards).expect("merge");
        assert_eq!(merged.chains.len(), 3);
        assert_eq!(merged.incomplete, 1);
        assert_eq!(merged.chains_per_eval().get(&99), None);
    }

    #[test]
    fn merge_requires_exactly_one_master_shard() {
        assert!(merge_shards(&[]).is_err());
        let shards = two_process_run(0.0);
        assert!(merge_shards(&shards[1..]).is_err());
        let doubled = vec![shards[0].clone(), shards[0].clone()];
        assert!(merge_shards(&doubled).is_err());
    }

    #[test]
    fn chrome_json_has_one_triple_per_chain() {
        let merged = merge_shards(&two_process_run(2.0)).expect("merge");
        let json = merged.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert_eq!(json.matches("\"name\":\"dispatch\"").count(), 3);
        assert_eq!(json.matches("\"name\":\"evaluate\"").count(), 3);
        assert_eq!(json.matches("\"name\":\"consume\"").count(), 3);
        assert!(json.contains("\"name\":\"worker0\""));
        assert!(json.contains("\"t_c_out\""));
    }
}
