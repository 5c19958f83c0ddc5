//! Workspace root crate for the Borg MOEA scalability reproduction.
//!
//! This crate exists to host the runnable examples in `examples/` and the
//! cross-crate integration tests in `tests/`. All functionality lives in the
//! member crates; this crate simply re-exports them under one roof so the
//! examples can write `use borg_repro::prelude::*;`.

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

/// Convenience re-exports used by the examples.
pub mod prelude {
    pub use borg_core::prelude::*;
    pub use borg_metrics::prelude::*;
    pub use borg_models::prelude::*;
    pub use borg_parallel::prelude::*;
    pub use borg_problems::prelude::*;
}
