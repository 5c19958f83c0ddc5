//! # borg-core
//!
//! A clean-room Rust implementation of the **Borg Multiobjective
//! Evolutionary Algorithm** (Hadka & Reed, *Evolutionary Computation* 2012)
//! as described in "Scalability Analysis of the Asynchronous, Master-Slave
//! Borg Multiobjective Evolutionary Algorithm" (Hadka, Madduri & Reed,
//! IPDPSW 2013).
//!
//! The crate provides:
//!
//! * the [`problem::Problem`] trait for real-valued multiobjective
//!   minimization problems;
//! * an ε-box dominance [`archive::EpsilonArchive`] with ε-progress
//!   tracking (Laumanns et al. 2002);
//! * the six auto-adapted variation operators (SBX+PM, DE+PM, PCX, SPX,
//!   UNDX, UM) in [`operators`];
//! * a steady-state [`population::Population`] with tournament selection;
//! * the [`algorithm::BorgEngine`] exposing the master-side
//!   `produce`/`consume` state machine that serial *and* asynchronous
//!   master-slave executions share, plus [`algorithm::run_serial`].
//!
//! ## Quick start
//!
//! ```
//! use borg_core::prelude::*;
//!
//! struct Schaffer;
//! impl Problem for Schaffer {
//!     fn name(&self) -> &str { "Schaffer" }
//!     fn num_variables(&self) -> usize { 1 }
//!     fn num_objectives(&self) -> usize { 2 }
//!     fn bounds(&self, _i: usize) -> Bounds { Bounds::new(-10.0, 10.0) }
//!     fn evaluate(&self, v: &[f64], o: &mut [f64], _c: &mut [f64]) {
//!         o[0] = v[0] * v[0];
//!         o[1] = (v[0] - 2.0) * (v[0] - 2.0);
//!     }
//! }
//!
//! let engine = run_serial(&Schaffer, BorgConfig::new(2, 0.1), 42, 2_000, |_| {});
//! assert!(engine.archive().len() > 3);
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

pub mod algorithm;
pub mod archive;
pub mod dominance;
pub mod matrix;
pub mod operators;
pub mod population;
pub mod problem;
pub mod rng;
pub mod solution;

/// Commonly used items.
pub mod prelude {
    pub use crate::algorithm::{run_serial, BorgConfig, BorgEngine, Candidate, SolutionArena};
    pub use crate::archive::{ArchiveInsert, EpsilonArchive};
    pub use crate::dominance::{constrained_dominance, pareto_dominance, Dominance};
    pub use crate::matrix::{FlatMatrix, ObjectiveMatrix};
    pub use crate::population::Population;
    pub use crate::problem::{evaluate_into_solution, Bounds, Problem};
    pub use crate::rng::SplitMix64;
    pub use crate::solution::{Member, Solution};
}
