//! # borg-desim
//!
//! A small deterministic discrete-event simulation engine, standing in for
//! the SimPy 2.3 library the paper used for its simulation model:
//!
//! * [`queue::EventQueue`] — min-heap event queue with FIFO tie-breaking
//!   and a simulation clock. Its order key is integer: the bits of the
//!   time (`at + 0.0`, which folds `-0.0` onto `+0.0`; every accepted time
//!   is non-negative, so its bits sort as its value) and the insertion
//!   number, two integer compares where a float `partial_cmp` and a
//!   tie-break ran before. Payloads are `Copy`;
//! * [`fault::FaultPlan`] / [`fault::FaultLog`] — deterministic fault
//!   injection (worker crashes, hangs, stragglers, message loss and
//!   duplication) and the recovery ledger shared by both executors.
//!
//! SimPy's request/hold/release on the master is written on the queue
//! alone, as `borg_models::queueing` does: a result that arrives while the
//! master is busy waits in the queue until the master's clock reaches it.
//!
//! ```
//! use borg_desim::EventQueue;
//!
//! // Two workers returning results compete for one master (hold 1.0 each).
//! let mut queue = EventQueue::new();
//! queue.schedule_at(1.0, "worker0");
//! queue.schedule_at(1.5, "worker1");
//! let mut master_free_at = 0.0_f64;
//! let mut served = Vec::new();
//! while let Some((arrived, worker)) = queue.pop() {
//!     let start = arrived.max(master_free_at); // request: wait if busy
//!     master_free_at = start + 1.0; // hold, then release
//!     served.push((worker, start));
//! }
//! // worker1 arrived at 1.5 but queued behind worker0 until 2.0.
//! assert_eq!(served, [("worker0", 1.0), ("worker1", 2.0)]);
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

pub mod fault;
pub mod queue;

pub use fault::{FaultConfig, FaultLog, FaultPlan};
pub use queue::{EventQueue, Time};
