//! # borg-problems
//!
//! The paper's two test problems: DTLZ2 (at any number of objectives; the
//! paper runs five) and UF11, the CEC 2009 problem that rotates and scales
//! 5-objective DTLZ2. Also the decision-space rotation UF11 is built from,
//! the analytic reference fronts of both, and one small constrained
//! problem that runs Borg's constraint handling end to end.
//!
//! ```
//! use borg_core::problem::Problem;
//! use borg_problems::dtlz::Dtlz;
//! use borg_problems::uf::uf11;
//!
//! // The paper's "easy" workload: 5-objective DTLZ2.
//! let p = Dtlz::dtlz2_5();
//! let mut objs = vec![0.0; 5];
//! // All distance variables at 0.5 put the solution on the unit-sphere front.
//! let mut vars = vec![0.3, 0.7, 0.2, 0.9];
//! vars.extend(std::iter::repeat(0.5).take(10));
//! p.evaluate(&vars, &mut objs, &mut []);
//! let r2: f64 = objs.iter().map(|f| f * f).sum();
//! assert!((r2 - 1.0).abs() < 1e-9);
//!
//! // The paper's "hard" workload: the rotated, scaled UF11.
//! let hard = uf11();
//! assert_eq!(hard.num_objectives(), 5);
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

pub mod dtlz;
pub mod misc;
pub mod refsets;
pub(crate) mod rotation;
pub mod uf;
