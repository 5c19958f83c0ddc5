//! Workspace root crate for the Borg MOEA scalability reproduction.
//!
//! This crate exists to host the runnable examples in `examples/` and the
//! cross-crate integration tests in `tests/`. All functionality lives in the
//! member crates; this crate re-exports them under one roof, so the
//! examples import by module path (`use borg_repro::core::algorithm::run_serial;`).

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]
pub use borg_core as core;
pub use borg_desim as desim;
pub use borg_experiments as experiments;
pub use borg_metrics as metrics;
pub use borg_models as models;
pub use borg_obs as obs;
pub use borg_parallel as parallel;
pub use borg_problems as problems;
