//! The paper's **simulation model** (§IV-B): a queueing simulation of the
//! asynchronous master-slave topology in which `T_F`, `T_A`, `T_C` follow
//! probability distributions and worker nodes contend for the master.
//!
//! Unlike the analytical model (Eq. 2), this model captures master
//! saturation: as `P` grows or `T_F` shrinks, results queue at the master
//! and elapsed time stops improving — the effect dominating the paper's
//! Table II error comparison.

use crate::analytical::TimingParams;
use crate::dist::Dist;
use crate::queueing::{run_async, run_sync, RunOutcome, SampledTiming};
use borg_core::rng::SplitMix64;
use borg_obs::{NoopRecorder, Recorder};

/// Distributional timing model for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Function evaluation time distribution.
    pub t_f: Dist,
    /// One-way communication time distribution.
    pub t_c: Dist,
    /// Master algorithm time distribution (per interaction).
    pub t_a: Dist,
}

impl TimingModel {
    /// Constant-time model matching the analytical assumptions.
    pub fn constant(t: TimingParams) -> Self {
        Self {
            t_f: Dist::Constant(t.t_f),
            t_c: Dist::Constant(t.t_c),
            t_a: Dist::Constant(t.t_a),
        }
    }

    /// The paper's experimental control: `T_F ~ Normal(mean, cv·mean)`,
    /// constant `T_C`, constant `T_A`.
    pub fn controlled_delay(t_f_mean: f64, cv: f64, t_c: f64, t_a: f64) -> Self {
        Self {
            t_f: Dist::normal_cv(t_f_mean, cv),
            t_c: Dist::Constant(t_c),
            t_a: Dist::Constant(t_a),
        }
    }

    /// Mean-value [`TimingParams`] (what the analytical model sees).
    pub(crate) fn means(&self) -> TimingParams {
        TimingParams::new(self.t_f.mean(), self.t_c.mean(), self.t_a.mean())
    }
}

/// Configuration of one simulated run.
#[derive(Debug, Clone, Copy)]
pub struct PerfSimConfig {
    /// Total processors `P` (one master + `P − 1` workers).
    pub processors: u32,
    /// Function evaluations `N`.
    pub evaluations: u64,
    /// Timing distributions.
    pub timing: TimingModel,
    /// RNG seed.
    pub seed: u64,
}

/// Prediction of the simulation model for one configuration.
#[derive(Debug, Clone)]
pub struct PerfPrediction {
    /// Full queueing outcome.
    pub outcome: RunOutcome,
    /// Predicted parallel time `T_P` (alias of `outcome.elapsed`).
    pub parallel_time: f64,
    /// Serial baseline `T_S = N (E[T_F] + E[T_A])`.
    pub serial_time: f64,
    /// Predicted speedup `T_S / T_P`.
    pub speedup: f64,
    /// Predicted efficiency `T_S / (P · T_P)`.
    pub efficiency: f64,
}

/// Runs the asynchronous simulation model for one configuration.
pub fn simulate_async(config: &PerfSimConfig) -> PerfPrediction {
    simulate_async_traced(config, &NoopRecorder)
}

/// As [`simulate_async`], emitting activity spans and metrics through
/// `rec` (for Figure 2 and the telemetry exports).
pub fn simulate_async_traced<R: Recorder + ?Sized>(
    config: &PerfSimConfig,
    rec: &R,
) -> PerfPrediction {
    assert!(
        config.processors >= 2,
        "need a master and at least one worker"
    );
    let workers = (config.processors - 1) as usize;
    let rng = SplitMix64::new(config.seed).derive("perfsim");
    let mut hooks = SampledTiming::new(config.timing, rng, workers);
    let outcome = run_async(&mut hooks, workers, config.evaluations, rec);
    predict(config, outcome)
}

/// Runs the synchronous (generational) simulation model, emitting activity
/// spans and metrics through `rec` (Figure 1's timeline).
pub fn simulate_sync<R: Recorder + ?Sized>(config: &PerfSimConfig, rec: &R) -> PerfPrediction {
    assert!(config.processors >= 2);
    let workers = (config.processors - 1) as usize;
    // Generation width: the workers plus the self-evaluating master.
    let rng = SplitMix64::new(config.seed).derive("perfsim");
    let mut hooks = SampledTiming::new(config.timing, rng, workers + 1);
    let outcome = run_sync(&mut hooks, workers, config.evaluations, rec);
    predict(config, outcome)
}

/// Speedup and efficiency of a simulated run against Eq. 1's serial time.
fn predict(config: &PerfSimConfig, outcome: RunOutcome) -> PerfPrediction {
    let serial = crate::analytical::serial_time(config.evaluations, config.timing.means());
    let speedup = serial / outcome.elapsed;
    PerfPrediction {
        parallel_time: outcome.elapsed,
        serial_time: serial,
        speedup,
        efficiency: speedup / config.processors as f64,
        outcome,
    }
}

/// Averages the simulation model over `replicates` seeds (the paper uses
/// 50 replicates; its tables report means).
pub fn simulate_async_mean(config: &PerfSimConfig, replicates: u32) -> PerfPrediction {
    assert!(replicates >= 1);
    let replicate_config = |r: u32| {
        let mut c = *config;
        c.seed = SplitMix64::new(config.seed)
            .derive_seed("perfsim-replicate")
            .wrapping_add(r as u64);
        c
    };
    // Replicate 0 seeds the accumulator directly — no empty case.
    let mut a = simulate_async(&replicate_config(0));
    for r in 1..replicates {
        let p = simulate_async(&replicate_config(r));
        a.parallel_time += p.parallel_time;
        a.speedup += p.speedup;
        a.efficiency += p.efficiency;
        a.outcome.elapsed += p.outcome.elapsed;
        a.outcome.master_busy += p.outcome.master_busy;
        a.outcome.master_utilization += p.outcome.master_utilization;
        a.outcome.mean_wait += p.outcome.mean_wait;
    }
    let k = replicates as f64;
    a.parallel_time /= k;
    a.speedup /= k;
    a.efficiency /= k;
    a.outcome.elapsed /= k;
    a.outcome.master_busy /= k;
    a.outcome.master_utilization /= k;
    a.outcome.mean_wait /= k;
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytical::{async_parallel_time, relative_error};

    fn paper_config(p: u32, t_f: f64, t_a: f64, n: u64) -> PerfSimConfig {
        PerfSimConfig {
            processors: p,
            evaluations: n,
            timing: TimingModel::controlled_delay(t_f, 0.1, 0.000_006, t_a),
            seed: 42,
        }
    }

    #[test]
    fn constant_model_reproduces_analytical_regime() {
        // Below saturation the simulation model and Eq. (2) agree.
        let cfg = PerfSimConfig {
            processors: 16,
            evaluations: 10_000,
            timing: TimingModel::constant(TimingParams::new(0.01, 0.000_006, 0.000_023)),
            seed: 1,
        };
        let pred = simulate_async(&cfg);
        let eq2 = async_parallel_time(cfg.evaluations, cfg.processors, cfg.timing.means());
        assert!(relative_error(pred.parallel_time, eq2) < 0.01);
        assert!(pred.efficiency > 0.9);
    }

    #[test]
    fn table2_error_pattern_small_tf_large_p() {
        // DTLZ2-like, T_F = 1 ms, P = 256: the analytical model undershoots
        // massively (paper: 93% error), the simulation model's elapsed is
        // governed by master saturation.
        let cfg = paper_config(256, 0.001, 0.000_031, 20_000);
        let pred = simulate_async(&cfg);
        let eq2 = async_parallel_time(cfg.evaluations, cfg.processors, cfg.timing.means());
        let analytic_err = relative_error(pred.parallel_time, eq2);
        assert!(
            analytic_err > 0.5,
            "analytical model should be badly wrong here: {analytic_err}"
        );
        assert!(pred.outcome.master_utilization > 0.95);
        assert!(pred.efficiency < 0.3);
    }

    #[test]
    fn efficiency_peaks_then_collapses() {
        // T_F = 10 ms: Eq. (3) puts master saturation at
        // P_UB = 0.01/0.000042 ≈ 238. Below it efficiency is high; past it
        // the simulation model (unlike Eq. 2) shows the collapse the
        // paper's Table II measures at P ∈ {256, 512, 1024}.
        let eff: Vec<f64> = [16u32, 32, 128, 512, 1024]
            .iter()
            .map(|&p| simulate_async(&paper_config(p, 0.01, 0.000_03, 20_000)).efficiency)
            .collect();
        assert!(eff[0] > 0.85, "E(16) = {}", eff[0]);
        assert!(eff[1] > 0.85, "E(32) = {}", eff[1]);
        assert!(eff[2] > 0.85, "E(128) = {}", eff[2]);
        assert!(eff[3] < 0.55, "E(512) = {} should collapse", eff[3]);
        assert!(eff[4] < eff[3], "E(1024) = {} must keep falling", eff[4]);
    }

    #[test]
    fn large_tf_scales_cleanly_to_1024() {
        // T_F = 0.1 s: the paper reports ~0.85+ efficiency at P = 1024.
        let pred = simulate_async(&paper_config(1024, 0.1, 0.000_045, 50_000));
        assert!(pred.efficiency > 0.8, "E = {}", pred.efficiency);
    }

    #[test]
    fn replicate_mean_is_stable() {
        let cfg = paper_config(64, 0.01, 0.000_027, 5_000);
        let a = simulate_async_mean(&cfg, 5);
        let b = simulate_async_mean(&cfg, 5);
        assert_eq!(
            a.parallel_time, b.parallel_time,
            "replicate mean must be deterministic"
        );
        let single = simulate_async(&cfg);
        assert!(relative_error(single.parallel_time, a.parallel_time) < 0.05);
    }

    #[test]
    fn sync_model_runs_and_reports() {
        let cfg = paper_config(16, 0.01, 0.000_006, 4_800);
        let pred = simulate_sync(&cfg, &NoopRecorder);
        assert!(pred.parallel_time > 0.0);
        assert!(pred.efficiency > 0.3 && pred.efficiency <= 1.0);
    }

    #[test]
    fn async_beats_sync_at_scale_sync_wins_small() {
        // The Figure 5 crossover, via the simulation models themselves.
        let at_scale = |p: u32| {
            let cfg = paper_config(p, 0.05, 0.000_02, 20_000);
            (
                simulate_async(&cfg).efficiency,
                simulate_sync(&cfg, &NoopRecorder).efficiency,
            )
        };
        let (ea_big, es_big) = at_scale(1024);
        assert!(
            ea_big > es_big + 0.1,
            "async {ea_big} should clearly beat sync {es_big} at P=1024"
        );
        let small = paper_config(3, 0.0005, 0.000_006, 3_000);
        let ea_small = simulate_async(&small).efficiency;
        let es_small = simulate_sync(&small, &NoopRecorder).efficiency;
        assert!(
            es_small > ea_small,
            "sync {es_small} should beat async {ea_small} at P=3, tiny T_F"
        );
    }
}
