//! The executor-agnostic master-slave protocol core.
//!
//! The paper's whole argument rests on *one* master-slave protocol being
//! observed through three lenses — analytical (Eq. 2), simulated (the
//! SimPy-style queueing model), and experimental (real workers). A
//! model/experiment comparison is only trustworthy when both arms run
//! identical control logic, so this crate carries the single source of
//! truth: a pure, deterministic [`MasterEngine`] state machine that
//! consumes [`Event`]s (result arrived, deadline fired, heartbeat tick,
//! worker died) and drives a small [`Transport`] trait with the
//! resulting actions (dispatch, consume, suppress duplicate, ping,
//! abandon). Everything an executor disagrees about — how time passes
//! ([`Clock`]), how messages move, how long the master holds per
//! interaction — lives in the adapter; everything the executors must
//! *agree* on — dispatch bookkeeping, deadline reissue, duplicate
//! suppression by eval id, liveness beliefs, wasted-NFE accounting —
//! lives here. The engine reports every event it handles and every
//! command it emits to its `Recorder` as a counter and a flight record
//! (`engine.events.*`, `engine.commands.*`) that holds the whole command,
//! so a flight ring that never wraps is the run's complete decision record.
//!
//! Adapters in this workspace:
//!
//! | executor | crate | clock | transport |
//! |---|---|---|---|
//! | queueing DES, async (`run_async`, `run_async_with`) | `borg-models` | event-queue virtual time | simulated latencies + [`FaultPlan`] fates (quiet plan = fault-free); `run_virtual_async*` in `borg-parallel` plugs the real MOEA in as hooks |
//! | wall clock (`wallclock::Master`) | `borg-parallel` | wall clock (seconds since start) | a `Link`: in-memory pipes to worker threads (`run_threaded`), or framed TCP / Unix-socket messages to worker processes (`serve` in `borg-net`) |
//!
//! The generational synchronous DES (`run_sync` in `borg-models`, Fig. 1)
//! is not an adapter: its master loses, retries and duplicates nothing, so
//! it is a plain event loop that drives no engine.
//!
//! The engine never reads a wall clock, never samples an RNG, and never
//! allocates on the arrival hot path beyond its id-indexed window — same
//! seed and same event stream give bit-identical decisions on every
//! machine, which is what the workspace's determinism gate (and the
//! golden Table II / faults cells under `crates/xtask/golden/`) enforce.
//!
//! [`FaultPlan`]: borg_desim::fault::FaultPlan

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]
// BORG-L012: the engine is driven by adversarial event schedules (the
// model checker delivers them in every order), so library code may not
// panic on a bad one. The private helpers that index behind bounds
// `handle` has validated carry an item-level `#[expect]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

mod command;
mod engine;
mod policy;
mod window;

pub use command::{Command, Event};
pub use engine::{EngineConfig, MasterEngine, PoolDiscipline, Transport};
pub use policy::RecoveryPolicy;
pub use window::IdWindow;

/// A source of protocol time, in seconds.
///
/// The engine itself is time-agnostic — times reach it inside events and
/// as return values of [`Transport`] calls — but adapters implement this
/// so the deadline sweep and ledger stamps share one notion of "now":
/// the DES adapters report the event-queue clock, the wall-clock master
/// reports seconds since the run started.
pub trait Clock {
    /// Current time in seconds.
    fn now(&self) -> f64;
}
