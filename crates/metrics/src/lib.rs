//! # borg-metrics
//!
//! Hypervolume for the Borg MOEA scalability reproduction: exact (WFG) and
//! Monte-Carlo hypervolume, the paper's reference-set-normalized
//! hypervolume ratio, and objective normalization helpers.
//!
//! ```
//! use borg_metrics::prelude::*;
//!
//! // Exact hypervolume of two nondominated boxes.
//! let hv = hypervolume(&[vec![0.2, 0.6], vec![0.6, 0.2]], &[1.0, 1.0]);
//! assert!((hv - 0.48).abs() < 1e-12);
//!
//! // The paper's metric: normalized against a reference set, 1.0 = ideal.
//! let front = borg_problems::refsets::dtlz2_front(3, 12);
//! let metric = RelativeHypervolume::exact(&front);
//! assert!((metric.ratio(&front) - 1.0).abs() < 1e-12);
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

pub mod hypervolume;
pub mod mc_hypervolume;
pub mod nds;
pub mod normalize;
pub mod relative;

/// Commonly used items.
pub mod prelude {
    pub use crate::hypervolume::hypervolume;
    pub use crate::mc_hypervolume::{HvTracker, McHypervolume};
    pub use crate::nds::nondominated_filter;
    pub use crate::normalize::ObjectiveBounds;
    pub use crate::relative::RelativeHypervolume;
}
