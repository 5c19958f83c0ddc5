//! The `net.*` metric catalogue (see DESIGN §11 for the house
//! conventions): counter/gauge/histogram names this crate feeds through
//! the `borg_obs::Recorder` facade. Centralised so exporters, docs, and
//! tests reference one vocabulary.

/// Frames written to a socket (any message type, either role).
pub const FRAMES_SENT: &str = "net.frames_sent";
/// Frames successfully decoded off a socket.
pub const FRAMES_RECEIVED: &str = "net.frames_received";
/// Bytes written (frame-complete).
pub(crate) const BYTES_SENT: &str = "net.bytes_sent";
/// Work items dispatched over the wire.
pub(crate) const DISPATCHES: &str = "net.dispatches";
/// Result frames consumed by the master.
pub const RESULTS: &str = "net.results";
/// Duplicate result frames absorbed (chaos duplication, reissue races).
pub(crate) const DUPLICATES: &str = "net.duplicates";
/// Heartbeat frames received by the master.
pub(crate) const HEARTBEATS: &str = "net.heartbeats";
/// Frames that failed to decode (connection subsequently dropped).
pub(crate) const DECODE_ERRORS: &str = "net.decode_errors";
/// Worker deaths detected by the master (EOF or stale heartbeat).
pub(crate) const WORKER_DEATHS: &str = "net.worker_deaths";
/// Faults the chaos proxy physically injected on the wire.
pub(crate) const CHAOS_INJECTIONS: &str = "net.chaos_injections";
/// Histogram: wall-clock seconds from dispatch write to result decode.
pub const RTT_SECONDS: &str = "net.rtt_seconds";
/// Histogram: wall-clock seconds the master blocked waiting for a
/// pinned-mode wire result.
pub(crate) const RESULT_WAIT_SECONDS: &str = "net.result_wait_seconds";
/// Trace contexts stamped onto outgoing frames (either role).
pub(crate) const TRACE_CTX_SENT: &str = "net.trace.ctx_sent";
/// Trace contexts observed on incoming frames (either role).
pub(crate) const TRACE_CTX_RECEIVED: &str = "net.trace.ctx_received";
/// Heartbeat clock-probe echoes the master sent back.
pub(crate) const TRACE_PROBE_ECHOES: &str = "net.trace.probe_echoes";
/// Histogram: heartbeat probe round-trip seconds (worker side).
pub(crate) const TRACE_PROBE_RTT_SECONDS: &str = "net.trace.probe_rtt_seconds";
/// Tap frames streamed to live metrics subscribers.
pub(crate) const TAP_FRAMES: &str = "net.tap.frames";
/// Tap subscriber connections accepted.
pub(crate) const TAP_SUBSCRIBERS: &str = "net.tap.subscribers";
/// Flight-recorder events captured into the ring (any process).
pub const FLIGHT_EVENTS: &str = "flight.events";
/// Flight-recorder dumps written (worker death, sever, panic, shutdown).
pub const FLIGHT_DUMPS: &str = "flight.dumps";
