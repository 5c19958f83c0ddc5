//! # borg-obs
//!
//! The workspace's observability layer: one span vocabulary, one metrics
//! facade, shared by every executor (DES, virtual-time, real threads) and
//! by the protocol engine itself.
//!
//! The paper's whole argument rests on *measured* `T_F` / `T_C` / `T_A`
//! distributions and master occupancy (Eqs. 1–4, Figures 1–2). This crate
//! makes every run self-measuring:
//!
//! * [`Recorder`] — the zero-dependency instrumentation trait: counters,
//!   gauges, log-bucketed histograms and typed activity spans over either
//!   virtual or wall-clock seconds. Every method has an empty default
//!   body, so the no-op sink compiles away.
//! * [`NoopRecorder`] — the default sink: monomorphizes to nothing.
//! * [`InMemoryRecorder`] — a concurrent (`&self`) in-memory sink backed
//!   by a mutex; snapshots to a [`MetricsSnapshot`] and a [`SpanTrace`].
//! * [`Histogram`] — log-bucketed (4 sub-buckets per octave, exact
//!   exponent arithmetic, no float log) with lossless merge.
//! * [`span`] — the `Actor`/`Activity`/`Span` vocabulary every executor
//!   and the protocol engine share.
//! * [`export`] — renderers: Chrome `chrome://tracing` JSON (open in
//!   Perfetto) and a JSONL metrics dump.
//! * [`flight`] — the black-box flight recorder: a fixed-capacity,
//!   allocation-free ring of recent events, dumped as deterministic
//!   JSONL on worker death / fault sever / panic.
//! * [`shard`] — per-process distributed-trace shards
//!   ([`TraceEdge`] JSONL) and [`merge_shards`], the deterministic
//!   clock-aligning merge into one causal cross-process trace.
//!
//! ```
//! use borg_obs::{InMemoryRecorder, Recorder};
//! use borg_obs::span::{Activity, Actor};
//!
//! let rec = InMemoryRecorder::new();
//! rec.counter("engine.reissues", 1);
//! rec.span(Actor::Worker(0), Activity::Evaluation, 0.0, 0.25);
//! let snap = rec.snapshot();
//! assert_eq!(snap.counters["engine.reissues"], 1);
//! // Span durations feed the matching empirical histogram for free.
//! assert_eq!(snap.histograms["t_f_seconds"].count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

pub mod export;
pub mod flight;
pub mod hist;
pub mod recorder;
pub mod shard;
pub mod span;

pub use flight::{FlightEvent, FlightRecorder, WithFlight};
pub use hist::Histogram;
pub use recorder::{
    InMemoryRecorder, MetricsSnapshot, NoopRecorder, Recorder, TraceEdge, TraceEdgeKind,
};
pub use shard::{merge_shards, EvalChain, MergedTrace, TraceShard};
pub use span::{Activity, Actor, Span, SpanTrace};
