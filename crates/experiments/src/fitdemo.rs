//! The §IV-B measurement pipeline, end-to-end on this machine: run the
//! real-thread master-slave executor, collect `T_A` / `T_F` samples and a
//! ping-pong `T_C` estimate, then fit candidate distributions and rank
//! them by log-likelihood — the paper's R workflow, in Rust.

use crate::report::TextTable;
use crate::suite::PaperProblem;
use borg_models::dist::Dist;
use borg_models::distfit::{fit_all, Family, SampleStats, WithSampleLog};
use borg_obs::{Activity, NoopRecorder};
use borg_parallel::threads::{
    estimate_comm_time, run_threaded_observed, ThreadedConfig, ThreadedError,
};

/// Configuration for the fitting demonstration.
#[derive(Debug, Clone, Copy)]
pub struct FitDemoConfig {
    /// Worker threads.
    pub workers: usize,
    /// Evaluations.
    pub evaluations: u64,
    /// Injected mean delay (seconds).
    pub t_f: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for FitDemoConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            evaluations: 2_000,
            t_f: 0.001,
            seed: 2013,
        }
    }
}

/// Output of the fitting demonstration.
#[derive(Debug)]
pub struct FitDemo {
    /// Measured statistics of `T_A`.
    pub ta_stats: SampleStats,
    /// Measured statistics of `T_F`.
    pub tf_stats: SampleStats,
    /// Estimated one-way `T_C`.
    pub t_c: f64,
    /// Ranked fits for `T_A`.
    pub ta_table: TextTable,
    /// Ranked fits for `T_F`.
    pub tf_table: TextTable,
}

fn rank_table(samples: &[f64]) -> TextTable {
    let mut t = TextTable::new(vec!["family", "fitted", "log-likelihood"]);
    for fit in fit_all(samples, &Family::all()) {
        t.row(vec![
            format!("{:?}", fit.family),
            format!("{:?}", fit.dist),
            format!("{:.1}", fit.log_likelihood),
        ]);
    }
    t
}

/// Runs the pipeline.
///
/// # Errors
/// Propagates [`ThreadedError`] if the worker pool or the `T_C` probe dies.
pub fn run_fit_demo(config: &FitDemoConfig) -> Result<FitDemo, ThreadedError> {
    let problem = PaperProblem::Dtlz2.build();
    let borg = PaperProblem::Dtlz2.borg_config(0.1);
    let ta = WithSampleLog::new(&NoopRecorder, Activity::Algorithm);
    let tf = WithSampleLog::new(&ta, Activity::Evaluation);
    run_threaded_observed(
        problem.as_ref(),
        borg,
        &ThreadedConfig::new(
            config.workers,
            config.evaluations,
            Some(Dist::normal_cv(config.t_f, 0.1)),
            config.seed,
        ),
        &tf,
    )?;
    let (tf, ta) = (tf.into_log(), ta.into_log());
    let t_c = estimate_comm_time(500)?;
    Ok(FitDemo {
        ta_stats: SampleStats::of(ta.retained()),
        tf_stats: SampleStats::of(tf.retained()),
        t_c,
        ta_table: rank_table(ta.retained()),
        tf_table: rank_table(tf.retained()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_recovers_injected_delay() {
        let cfg = FitDemoConfig {
            workers: 2,
            evaluations: 400,
            t_f: 0.002,
            seed: 9,
        };
        let demo = run_fit_demo(&cfg).expect("fit demo run");
        // The delay is never early, so the measured mean is at least the
        // injected 2 ms under any load; the upper bands are in
        // `tests/fit_bands.rs`, run by `ci.sh`.
        assert!(
            demo.tf_stats.mean >= 0.002,
            "mean T_F {}",
            demo.tf_stats.mean
        );
        assert!(demo.tf_table.len() > 0);
        assert!(demo.ta_table.len() > 0);
    }
}
