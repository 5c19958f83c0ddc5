//! `borg-net`: wire-level transport for the master-slave protocol.
//!
//! Carries `borg_protocol::{Command, Event}` (and the deployment
//! envelope around them) across process and machine boundaries:
//!
//! - [`codec`] — hand-rolled length-framed binary codec (magic, version,
//!   checksum; total decode: malformed input is an error, never a panic,
//!   never an over-allocation).
//! - [`transport`] — TCP and Unix-domain-socket streams with mandatory
//!   per-connection read timeouts and a bounded exponential backoff for
//!   a worker's first dial.
//! - [`worker`] — the remote evaluation loop: register once, evaluate
//!   dispatched candidates, stream results, heartbeat; a dropped
//!   connection ends the worker.
//! - [`serve`] — the real-clock master: the one wall-clock master of
//!   `borg_parallel::wallclock` over live sockets (deadline reissue,
//!   EOF + heartbeat-staleness death detection, duplicate suppression).
//! - [`chaos`] — the loopback chaos harness: an interposing proxy maps
//!   the seeded `borg_desim::fault::FaultPlan` onto real sockets (a
//!   crash closes the worker's socket for good) while the master
//!   replays the *same* plan through the DES fault engine in virtual
//!   time (`sampled_ta`), making the networked run's fault ledger and
//!   final archive bit-identical to the DES oracle.
//! - [`tap`] — the live metrics tap: a read-only side-channel streaming
//!   periodic `MetricsSnapshot` deltas (stable-schema JSONL inside
//!   [`codec::Msg::Tap`] frames) to any number of subscribers.
//!
//! Socket I/O in this crate must not `unwrap()`/`expect()` and every
//! socket must carry read and write deadlines (BORG-L013): this crate's
//! `clippy.toml` disallows the raw `connect`/`accept` outside the two
//! `transport` wrappers that install both, and `tests/inventory.rs`
//! rejects a `set_*_timeout(None)`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

pub mod chaos;
pub mod codec;
pub mod metrics;
pub mod serve;
pub mod tap;
pub mod transport;
pub mod worker;

pub use codec::{DecodeError, FrameReader, Msg, TraceCtx};
pub use transport::{
    connect_with_backoff, Backoff, Conn, NetAddr, NetError, NetListener, NetStream,
};
