//! The fault-injection experiment: completion and efficiency under worker
//! failures, swept over failure rate `f` × processor count `P`.
//!
//! The paper's scalability analysis (and its TACC Ranger deployment)
//! assumes a reliable pool; this experiment extends the reproduction to
//! the regime HPC schedulers actually deliver. Each cell runs the real
//! Borg MOEA in the virtual-time executor with the fault plan derived from
//! [`FaultConfig::degraded`] (crash rate `f`, 1% message loss) and the
//! self-healing master recovering via deadline reissue. Predictions come
//! from the degraded analytical model `P_eff = P · (1 − f)`
//! ([`async_parallel_time_degraded`]).
//!
//! The `f = 0` arm reuses [`crate::table2::replicate_seeds`] and the plain
//! executor, so it re-runs the corresponding Table II experimental cells
//! (identical seeds and schedule; elapsed differs only by measured-`T_A`
//! machine noise) — tying the two experiments together and guarding the
//! fault path against drift in the fault-free baseline.

use crate::report::TextTable;
use crate::suite::PaperProblem;
use crate::table2::replicate_seeds;
use borg_desim::fault::FaultConfig;
use borg_models::analytical::{
    async_parallel_time_degraded, relative_error, serial_time, TimingParams,
};
use borg_models::dist::Dist;
use borg_obs::NoopRecorder;
use borg_parallel::virtual_exec::{
    run_virtual_async, run_virtual_async_with, FaultyRun, TaMode, VirtualConfig,
};

/// Configuration of the failure-rate × processor-count sweep.
#[derive(Debug, Clone)]
pub struct FaultsConfig {
    /// Function evaluations per run.
    pub evaluations: u64,
    /// Replicates per cell.
    pub replicates: u32,
    /// Processor counts (a subset of Table II's, so `f = 0` rows line up).
    pub processors: Vec<u32>,
    /// Failure rates `f` (fraction of workers lost over a run); `0.0`
    /// routes through the plain executor as the Table II baseline.
    pub failure_rates: Vec<f64>,
    /// Mean injected evaluation time (one of Table II's `T_F` settings).
    pub tf_mean: f64,
    /// Workload.
    pub problem: PaperProblem,
    /// Base archive ε.
    pub epsilon: f64,
    /// Root seed (shared with Table II so the baselines coincide).
    pub seed: u64,
    /// Worker threads for the replicate sweep (`0` auto, `1` serial). The
    /// fan-out adds no nondeterminism: with `sampled_ta` pinned, every
    /// value produces byte-identical rows and fault ledgers (see
    /// `borg-runner`); measured `T_A` varies with host timing regardless.
    pub jobs: usize,
    /// `Some(v)`: sampled constant `T_A` of `v` seconds instead of
    /// measured `T_A` (used by the determinism gate); `None`: measure.
    pub sampled_ta: Option<f64>,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        Self {
            evaluations: 20_000,
            replicates: 3,
            processors: vec![16, 64, 256],
            failure_rates: vec![0.0, 0.05, 0.1, 0.25],
            tf_mean: 0.01,
            problem: PaperProblem::Dtlz2,
            epsilon: 0.1,
            seed: 20130520,
            jobs: 0,
            sampled_ta: None,
        }
    }
}

impl FaultsConfig {
    /// Smoke-test settings for CI.
    pub fn smoke(mut self) -> Self {
        self.evaluations = 2_000;
        self.replicates = 1;
        self.processors = vec![8, 64];
        self.failure_rates = vec![0.0, 0.1];
        self.tf_mean = 0.001;
        self
    }
}

/// One cell of the sweep (means over replicates).
#[derive(Debug, Clone)]
pub struct FaultsRow {
    /// Workload name.
    pub problem: &'static str,
    /// Provisioned processor count `P`.
    pub processors: u32,
    /// Failure rate `f`.
    pub failure_rate: f64,
    /// Evaluations completed (must equal the budget: recovery guarantee).
    pub completed_nfe: u64,
    /// Mean experimental elapsed time (virtual seconds).
    pub experimental_time: f64,
    /// Speedup over the serial baseline implied by measured `T_A` (Eq. 1).
    pub speedup: f64,
    /// Efficiency against the *provisioned* `P` — failures cost efficiency
    /// even when recovery preserves completion.
    pub efficiency: f64,
    /// Degraded analytical prediction (`P_eff = P · (1 − f)`).
    pub degraded_time: f64,
    /// Relative error of the degraded model (Eq. 5).
    pub degraded_error: f64,
    /// Faults injected per replicate (mean).
    pub injected: f64,
    /// Faults detected per replicate (mean).
    pub detected: f64,
    /// Faults recovered per replicate (mean).
    pub recovered: f64,
    /// Reissued evaluations per replicate (mean).
    pub reissues: f64,
    /// Evaluations whose results were lost or duplicated (mean).
    pub wasted_nfe: f64,
}

/// `T_C` injected into every run (seconds), matching Table II's.
const T_C: f64 = 0.000_006;

/// What one replicate run hands back to the per-cell fold.
struct ReplicateOutcome {
    elapsed: f64,
    ta_sum: f64,
    ta_count: usize,
    completed: u64,
    injected: usize,
    detected: usize,
    recovered: usize,
    reissues: u64,
    wasted: u64,
}

/// Runs the sweep: replicate seeds are pre-derived in (cell, replicate)
/// order, the replicates fan out over `config.jobs` workers, and each
/// cell folds its outcomes in replicate order as soon as its last
/// replicate finishes — so the rows (and the fault ledgers they
/// summarise) are bit-identical for every `jobs` setting.
pub fn run_faults(config: &FaultsConfig) -> Vec<FaultsRow> {
    let mut cells = Vec::new();
    for &f in &config.failure_rates {
        for &p in &config.processors {
            cells.push((f, p));
        }
    }
    let seeds = cells
        .iter()
        .map(|&(_, p)| {
            replicate_seeds(
                config.seed,
                config.problem,
                config.tf_mean,
                p,
                config.replicates,
            )
        })
        .collect();
    crate::par::run_groups(
        config.jobs,
        seeds,
        |cell, seed| {
            let (f, p) = cells[cell];
            run_replicate(config, f, p, seed)
        },
        |cell, outcomes| {
            let (f, p) = cells[cell];
            finalize_cell(config, f, p, &outcomes)
        },
    )
}

/// Runs one replicate (workload built fresh; jobs share nothing).
fn run_replicate(config: &FaultsConfig, f: f64, p: u32, seed: u64) -> ReplicateOutcome {
    let problem = config.problem.build();
    let borg = config.problem.borg_config(config.epsilon);
    // f = 0 means a clean pool — not even the background message loss
    // `degraded` adds — so the baseline is exactly the Table II arm.
    let faults = if f == 0.0 {
        FaultConfig::default()
    } else {
        FaultConfig::degraded(f)
    };
    let vcfg = VirtualConfig {
        processors: p,
        max_nfe: config.evaluations,
        t_f: Dist::normal_cv(config.tf_mean, 0.1),
        t_c: Dist::Constant(T_C),
        t_a: match config.sampled_ta {
            Some(v) => TaMode::Sampled(Dist::Constant(v)),
            None => TaMode::Measured,
        },
        seed,
    };
    // f = 0 routes through the plain executor: identical to the
    // Table II experimental arm, and proof the fault machinery adds
    // nothing when quiet.
    let result = if faults.is_quiet() {
        run_virtual_async(problem.as_ref(), borg, &vcfg, &NoopRecorder, |_, _| {})
    } else {
        run_virtual_async_with(
            problem.as_ref(),
            borg,
            &FaultyRun::new(&vcfg, &faults),
            &NoopRecorder,
            |_, _| {},
        )
    };
    ReplicateOutcome {
        elapsed: result.outcome.elapsed,
        ta_sum: result.ta.sum(),
        ta_count: result.ta.count(),
        completed: result.engine.nfe(),
        injected: result.fault_log.injected(),
        detected: result.fault_log.detected(),
        recovered: result.fault_log.recovered(),
        reissues: result.fault_log.reissues,
        wasted: result.fault_log.wasted_nfe,
    }
}

/// Folds one cell's replicate outcomes (in replicate order) into its row.
fn finalize_cell(
    config: &FaultsConfig,
    f: f64,
    p: u32,
    outcomes: &[ReplicateOutcome],
) -> FaultsRow {
    let t_c = T_C;
    let mut elapsed_sum = 0.0;
    let mut ta_sum = 0.0;
    let mut ta_count = 0usize;
    let mut completed = 0u64;
    let mut injected = 0usize;
    let mut detected = 0usize;
    let mut recovered = 0usize;
    let mut reissues = 0u64;
    let mut wasted = 0u64;
    for outcome in outcomes {
        elapsed_sum += outcome.elapsed;
        ta_sum += outcome.ta_sum;
        ta_count += outcome.ta_count;
        completed = completed.max(outcome.completed);
        injected += outcome.injected;
        detected += outcome.detected;
        recovered += outcome.recovered;
        reissues += outcome.reissues;
        wasted += outcome.wasted;
    }

    let reps = config.replicates as f64;
    let experimental_time = elapsed_sum / reps;
    let mean_ta = if ta_count > 0 {
        ta_sum / ta_count as f64
    } else {
        0.0
    };
    let timing = TimingParams::new(config.tf_mean, t_c, mean_ta);
    let t_s = serial_time(config.evaluations, timing);
    let degraded_time = async_parallel_time_degraded(config.evaluations, p, timing, f);

    FaultsRow {
        problem: config.problem.name(),
        processors: p,
        failure_rate: f,
        completed_nfe: completed,
        experimental_time,
        speedup: t_s / experimental_time,
        efficiency: t_s / (p as f64 * experimental_time),
        degraded_time,
        degraded_error: relative_error(experimental_time, degraded_time),
        injected: injected as f64 / reps,
        detected: detected as f64 / reps,
        recovered: recovered as f64 / reps,
        reissues: reissues as f64 / reps,
        wasted_nfe: wasted as f64 / reps,
    }
}

/// Renders the sweep as a text table.
pub fn render_faults(rows: &[FaultsRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        "problem", "P", "f", "nfe", "time", "speedup", "eff", "degraded", "err", "inj", "det",
        "rec", "reissue", "wasted",
    ]);
    for r in rows {
        t.row(vec![
            r.problem.to_string(),
            r.processors.to_string(),
            format!("{:.2}", r.failure_rate),
            r.completed_nfe.to_string(),
            format!("{:.2}", r.experimental_time),
            format!("{:.2}", r.speedup),
            format!("{:.2}", r.efficiency),
            format!("{:.2}", r.degraded_time),
            format!("{:.0}%", r.degraded_error * 100.0),
            format!("{:.1}", r.injected),
            format!("{:.1}", r.detected),
            format!("{:.1}", r.recovered),
            format!("{:.1}", r.reissues),
            format!("{:.1}", r.wasted_nfe),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table2::{run_table2, Table2Config};

    #[test]
    fn smoke_sweep_completes_budget_in_every_cell() {
        let cfg = FaultsConfig::default().smoke();
        let rows = run_faults(&cfg);
        assert_eq!(rows.len(), 4); // 2 f × 2 P
        for r in &rows {
            assert_eq!(
                r.completed_nfe, cfg.evaluations,
                "P={} f={} did not complete the budget",
                r.processors, r.failure_rate
            );
            assert!(r.experimental_time > 0.0);
            assert!(r.efficiency > 0.0 && r.efficiency <= 1.05);
            if r.failure_rate == 0.0 {
                assert_eq!(r.injected, 0.0);
                assert_eq!(r.reissues, 0.0);
            } else {
                assert!(r.injected > 0.0, "faulty cell injected nothing");
                assert!(
                    (r.recovered - r.detected).abs() < 1e-9,
                    "unrecovered faults: det {} rec {}",
                    r.detected,
                    r.recovered
                );
            }
        }
        assert_eq!(render_faults(&rows).len(), 4);
    }

    #[test]
    fn fault_free_arm_reproduces_table2_cell() {
        // The acceptance tie-in: the f = 0 row must equal the Table II
        // experimental arm for the same (problem, T_F, P, seed) cell.
        let fcfg = FaultsConfig {
            evaluations: 2_000,
            replicates: 1,
            processors: vec![8],
            failure_rates: vec![0.0],
            tf_mean: 0.001,
            sampled_ta: Some(0.000_03),
            ..FaultsConfig::default()
        };
        let t2cfg = Table2Config {
            evaluations: 2_000,
            replicates: 1,
            processors: vec![8],
            tf_means: vec![0.001],
            problems: vec![PaperProblem::Dtlz2],
            sampled_ta: Some(0.000_03),
            ..Table2Config::default()
        };
        let frow = &run_faults(&fcfg)[0];
        let trow = &run_table2(&t2cfg)[0];
        // Same seeds, same executor, same config, and `T_A` pinned (the
        // measured mode would charge this host's wall clock into the
        // virtual schedule): the two arms are the same run.
        assert_eq!(frow.experimental_time, trow.experimental_time);
        assert_eq!(frow.completed_nfe, 2_000);
        assert_eq!(frow.injected, 0.0, "f=0 arm must inject nothing");
    }

    #[test]
    fn higher_failure_rates_cost_efficiency_not_completion() {
        let cfg = FaultsConfig {
            evaluations: 4_000,
            replicates: 1,
            processors: vec![16],
            failure_rates: vec![0.0, 0.25],
            tf_mean: 0.001,
            // Elapsed times are compared below: keep this host's wall
            // clock (measured `T_A`) out of the virtual schedule.
            sampled_ta: Some(0.000_03),
            ..FaultsConfig::default()
        };
        let rows = run_faults(&cfg);
        assert_eq!(rows[0].completed_nfe, rows[1].completed_nfe);
        assert!(
            rows[1].experimental_time > rows[0].experimental_time,
            "losing a quarter of the pool should cost time: {} vs {}",
            rows[1].experimental_time,
            rows[0].experimental_time
        );
    }
}
