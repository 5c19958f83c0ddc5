//! # borg-parallel
//!
//! Parallel master-slave executors for the Borg MOEA:
//!
//! * [`virtual_exec`] — deterministic **virtual-time** executors that run
//!   the real algorithm inside a discrete-event simulation of the
//!   master-slave topology (the reproduction's experimental arm; scales to
//!   thousands of simulated processors on one machine);
//! * [`wallclock`] — the one **wall-clock** master: the protocol engine
//!   driven in real time by whichever thread brings a result, generic over
//!   the link that moves the work (`borg-net`'s `serve` runs it over
//!   sockets);
//! * [`threads`] — that master over in-memory pipes to **real threads**,
//!   with measured `T_A`/`T_F`/`T_C` (the laptop-scale stand-in for the
//!   paper's MPI deployment);
//! * [`delayed`] — [`delayed::precise_delay`], the one wall-clock
//!   evaluation delay (the paper's experimental control).
//!
//! ```
//! use borg_core::algorithm::BorgConfig;
//! use borg_models::dist::Dist;
//! use borg_obs::NoopRecorder;
//! use borg_parallel::virtual_exec::{run_virtual_async, TaMode, VirtualConfig};
//! use borg_problems::dtlz::{Dtlz, DtlzVariant};
//!
//! // Run the real Borg MOEA on 63 simulated workers, deterministically.
//! let problem = Dtlz::new(DtlzVariant::Dtlz2, 3);
//! let cfg = VirtualConfig {
//!     processors: 64,
//!     max_nfe: 2_000,
//!     t_f: Dist::normal_cv(0.01, 0.1),
//!     t_c: Dist::Constant(0.000_006),
//!     t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
//!     seed: 42,
//! };
//! let run = run_virtual_async(
//!     &problem,
//!     BorgConfig::new(3, 0.05),
//!     &cfg,
//!     &NoopRecorder,
//!     |_, _| {},
//! );
//! assert_eq!(run.engine.nfe(), 2_000);
//! assert!(run.outcome.elapsed > 0.0);
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
// Test regions may block on a channel (BORG-L006); the library target's own pass still
// checks every line outside them.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod delayed;
mod master_core;
pub mod threads;
pub mod virtual_exec;
pub mod wallclock;
