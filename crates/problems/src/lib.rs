//! # borg-problems
//!
//! Benchmark problems for the Borg MOEA scalability reproduction: the DTLZ
//! suite, the ZDT suite, the CEC 2009 UF suite (including the paper's UF11
//! as a rotated, scaled 5-objective DTLZ2), decision-space rotation
//! utilities, analytic reference fronts, and small classic problems for
//! examples.
//!
//! ```
//! use borg_problems::prelude::*;
//! use borg_core::problem::Problem;
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
pub mod rotation;
pub mod uf;
pub mod zdt;

/// Commonly used items.
pub mod prelude {
    pub use crate::dtlz::{Dtlz, DtlzVariant};
    pub use crate::misc::{BinhKorn, Fonseca, Schaffer};
    pub use crate::refsets::{dtlz1_front, dtlz2_front, uf11_front, zdt_front};
    pub use crate::rotation::{OrthogonalMatrix, RotatedProblem};
    pub use crate::uf::{uf11, uf12, Uf, UfVariant};
    pub use crate::zdt::{Zdt, ZdtVariant};
}
