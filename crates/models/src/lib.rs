//! # borg-models
//!
//! The paper's scalability models:
//!
//! * [`analytical`] — closed forms: serial time (Eq. 1), asynchronous
//!   parallel time (Eq. 2), processor-count bounds (Eqs. 3–4), Cantú-Paz's
//!   synchronous model (Eq. 6), speedup/efficiency algebra;
//! * [`dist`] / [`distfit`] — the timing-distribution zoo and the
//!   MLE + log-likelihood fitting pipeline (the paper's R step);
//! * [`queueing`] — the master-slave discrete-event engine with pluggable
//!   hooks (shared with the full-algorithm executors in `borg-parallel`);
//! * [`perfsim`] — the paper's SimPy-equivalent simulation model built on
//!   sampled timing distributions.
//!
//! ```
//! use borg_models::prelude::*;
//!
//! // Eq. 3: the paper's worked example — master saturation at P ≈ 244.
//! let t = TimingParams::new(0.01, 0.000_006, 0.000_029);
//! assert!((processor_upper_bound(t) - 244.0).abs() < 1.0);
//!
//! // Below saturation the simulation model agrees with Eq. 2 …
//! let cfg = PerfSimConfig {
//!     processors: 16,
//!     evaluations: 5_000,
//!     timing: TimingModel::controlled_delay(0.01, 0.1, 0.000_006, 0.000_029),
//!     seed: 1,
//! };
//! let sim = simulate_async(&cfg);
//! let eq2 = async_parallel_time(5_000, 16, t);
//! assert!(relative_error(sim.parallel_time, eq2) < 0.02);
//! // … and predicts high efficiency.
//! assert!(sim.efficiency > 0.9);
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

pub mod advisor;
pub mod analytical;
pub mod dist;
pub mod distfit;
pub mod perfsim;
pub mod queueing;
pub mod special;

/// Commonly used items.
pub mod prelude {
    pub use crate::advisor::{
        recommend_partition, recommend_processor_count, PartitionRecommendation,
        ProcessorRecommendation,
    };
    pub use crate::analytical::{
        async_efficiency, async_parallel_time, async_parallel_time_saturating, async_speedup,
        processor_lower_bound, processor_upper_bound, relative_error, serial_time, sync_efficiency,
        sync_parallel_time, sync_speedup, TimingParams,
    };
    pub use crate::dist::Dist;
    pub use crate::distfit::{best_fit, fit_all, fit_family, Family, SampleLog, SampleStats};
    pub use crate::perfsim::{
        simulate_async, simulate_async_mean, simulate_sync, PerfPrediction, PerfSimConfig,
        TimingModel,
    };
    pub use crate::queueing::{
        run_async, run_async_with, run_sync, AsyncRun, MasterSlaveHooks, RunOutcome,
    };
}
