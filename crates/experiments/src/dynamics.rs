//! Algorithm dynamics under scaling (§VI discussion / §VII conclusion):
//! *"the effectiveness of the asynchronous Borg MOEA's auto-adaptive
//! search is strongly shaped by parallel scalability and problem
//! difficulty"*.
//!
//! The experiment runs the same workload and evaluation budget at several
//! processor counts, recording — against **virtual wall-clock time** — the
//! evaluations completed, hypervolume, restart count, and the entropy of
//! the operator-selection probabilities. Compared at a common time point
//! (the moment the fastest configuration finished), efficient
//! configurations have executed their full budget and fully adapted their
//! operator ensemble, while saturated configurations lag in evaluations,
//! adaptation, and quality — making the paper's "dynamics" argument
//! quantitative.

use crate::report::TextTable;
use crate::suite::PaperProblem;
use borg_core::rng::SplitMix64;
use borg_metrics::relative::RelativeHypervolume;
use borg_models::dist::Dist;
use borg_obs::NoopRecorder;
use borg_parallel::virtual_exec::{run_virtual_async, TaMode, VirtualConfig};

/// Configuration of the dynamics experiment.
#[derive(Debug, Clone)]
pub struct DynamicsConfig {
    /// Workload.
    pub problem: PaperProblem,
    /// Processor counts to compare.
    pub processors: Vec<u32>,
    /// Evaluation budget per run.
    pub evaluations: u64,
    /// Mean evaluation delay.
    pub t_f: f64,
    /// Checkpoint cadence in evaluations.
    pub check_every: u64,
    /// Seed.
    pub seed: u64,
    /// Worker threads for the per-`P` sweep (`0` auto, `1` serial). The
    /// fan-out adds no nondeterminism — seeds are pre-derived and results
    /// fold in `processors` order (see `borg-runner`); measured `T_A`
    /// still varies with host timing run to run regardless of `jobs`.
    pub jobs: usize,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        Self {
            problem: PaperProblem::Uf11,
            processors: vec![16, 64, 256, 1024],
            evaluations: 20_000,
            t_f: 0.001,
            check_every: 500,
            seed: 0xD1A,
            jobs: 0,
        }
    }
}

impl DynamicsConfig {
    /// Smoke scale.
    pub fn smoke(mut self) -> Self {
        self.evaluations = 3_000;
        self.processors = vec![8, 256];
        self.check_every = 250;
        self
    }
}

/// One checkpoint along a run.
#[derive(Debug, Clone)]
pub struct DynamicsPoint {
    /// Virtual time (seconds).
    pub time: f64,
    /// Evaluations consumed.
    pub nfe: u64,
    /// Archive size.
    pub archive: usize,
    /// Restarts so far.
    pub restarts: u64,
    /// Hypervolume ratio.
    pub hypervolume: f64,
    /// Normalized Shannon entropy of the operator probabilities
    /// (1 = uniform / unadapted, → 0 as one operator dominates).
    pub operator_entropy: f64,
}

/// One processor count's trajectory.
#[derive(Debug, Clone)]
pub struct DynamicsTrajectory {
    /// Processor count.
    pub processors: u32,
    /// Checkpoints in time order.
    pub points: Vec<DynamicsPoint>,
}

impl DynamicsTrajectory {
    /// The last checkpoint at or before `t` (None if the run hadn't
    /// produced a checkpoint yet).
    pub fn at_time(&self, t: f64) -> Option<&DynamicsPoint> {
        self.points.iter().rev().find(|p| p.time <= t)
    }

    /// CSV rendering of the full trajectory.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time,nfe,archive,restarts,hypervolume,operator_entropy\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:.6},{},{},{},{:.4},{:.4}\n",
                p.time, p.nfe, p.archive, p.restarts, p.hypervolume, p.operator_entropy
            ));
        }
        out
    }
}

/// Normalized Shannon entropy of a probability vector.
pub fn normalized_entropy(probs: &[f64]) -> f64 {
    let k = probs.len() as f64;
    if probs.len() <= 1 {
        return 0.0;
    }
    let h: f64 = probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum();
    h / k.ln()
}

/// Runs the dynamics experiment, returning one trajectory per `P`.
///
/// Each processor count is one job: its seed is pre-derived from the
/// shared SplitMix64 stream in `config.processors` order, the runs fan
/// out over `config.jobs` workers, and the trajectories come back in
/// that same order — bit-identical for every `jobs` setting. Each run syncs
/// one [`HvTracker`](borg_metrics::mc_hypervolume::HvTracker) at its
/// checkpoints, which counts only the archive rows that changed since the
/// previous one.
pub fn run_dynamics(config: &DynamicsConfig) -> Vec<DynamicsTrajectory> {
    let metric =
        RelativeHypervolume::monte_carlo(&config.problem.reference_front(6), 10_000, config.seed);
    let mut split = SplitMix64::new(config.seed);
    let jobs: Vec<(u32, u64)> = config
        .processors
        .iter()
        .map(|&p| (p, split.derive_seed("dynamics") ^ u64::from(p)))
        .collect();
    crate::par::run_jobs(config.jobs, jobs, |_, (p, seed)| {
        let problem = config.problem.build();
        let borg = config.problem.borg_config(0.1);
        let vcfg = VirtualConfig {
            processors: p,
            max_nfe: config.evaluations,
            t_f: Dist::normal_cv(config.t_f, 0.1),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Measured,
            seed,
        };
        let mut points = Vec::new();
        let check = config.check_every.max(1);
        let mut hv = metric.tracker();
        run_virtual_async(problem.as_ref(), borg, &vcfg, &NoopRecorder, |t, engine| {
            if engine.nfe() % check == 0 || engine.nfe() == config.evaluations {
                points.push(DynamicsPoint {
                    time: t,
                    nfe: engine.nfe(),
                    archive: engine.archive().len(),
                    restarts: engine.stats().restarts,
                    hypervolume: hv.sync(engine.archive().objective_rows()),
                    operator_entropy: normalized_entropy(engine.operator_probabilities()),
                });
            }
        });
        DynamicsTrajectory {
            processors: p,
            points,
        }
    })
}

/// Summary table at the common time point where the fastest configuration
/// completed its budget.
pub fn render_dynamics_summary(trajectories: &[DynamicsTrajectory]) -> TextTable {
    let t_ref = trajectories
        .iter()
        .filter_map(|t| t.points.last().map(|p| p.time))
        .fold(f64::INFINITY, f64::min);
    let mut table = TextTable::new(vec![
        "P",
        "t_ref (s)",
        "nfe@t_ref",
        "hv@t_ref",
        "op entropy@t_ref",
        "restarts@t_ref",
        "final hv",
    ]);
    for t in trajectories {
        let at = t.at_time(t_ref);
        let last = t.points.last();
        table.row(vec![
            t.processors.to_string(),
            format!("{t_ref:.3}"),
            at.map_or("-".into(), |p| p.nfe.to_string()),
            at.map_or("-".into(), |p| format!("{:.3}", p.hypervolume)),
            at.map_or("-".into(), |p| format!("{:.3}", p.operator_entropy)),
            at.map_or("-".into(), |p| p.restarts.to_string()),
            last.map_or("-".into(), |p| format!("{:.3}", p.hypervolume)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_bounds() {
        assert!((normalized_entropy(&[1.0 / 6.0; 6]) - 1.0).abs() < 1e-12);
        assert!(normalized_entropy(&[1.0, 0.0, 0.0]) < 1e-12);
        let mid = normalized_entropy(&[0.7, 0.1, 0.1, 0.1]);
        assert!(mid > 0.0 && mid < 1.0);
        assert_eq!(normalized_entropy(&[1.0]), 0.0);
    }

    #[test]
    fn smoke_dynamics_produces_trajectories() {
        let cfg = DynamicsConfig::default().smoke();
        let trajs = run_dynamics(&cfg);
        assert_eq!(trajs.len(), 2);
        for t in &trajs {
            assert!(!t.points.is_empty());
            assert_eq!(t.points.last().unwrap().nfe, cfg.evaluations);
            // Time and NFE are monotone along a trajectory.
            assert!(t.points.windows(2).all(|w| w[0].time <= w[1].time));
            assert!(t.points.windows(2).all(|w| w[0].nfe < w[1].nfe));
            let csv = t.to_csv();
            assert_eq!(csv.lines().count(), t.points.len() + 1);
        }
        let table = render_dynamics_summary(&trajs);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn saturated_configuration_loses_quality_at_equal_budget() {
        // The paper's dynamics claim, measured: at a fixed evaluation
        // budget, the heavily-asynchronous configuration (1023 results in
        // flight against a 100-member population) selects against stale
        // state and ends with lower hypervolume than the efficient one.
        // Meanwhile operator adaptation is active everywhere (entropy
        // drops below uniform).
        let cfg = DynamicsConfig {
            processors: vec![16, 1024],
            evaluations: 12_000,
            ..DynamicsConfig::default()
        };
        let trajs = run_dynamics(&cfg);
        let final_hv = |p: u32| {
            trajs
                .iter()
                .find(|t| t.processors == p)
                .unwrap()
                .points
                .last()
                .unwrap()
                .hypervolume
        };
        assert!(
            final_hv(16) >= final_hv(1024) - 0.03,
            "saturated config should not beat the efficient one: {} vs {}",
            final_hv(16),
            final_hv(1024)
        );
        for t in &trajs {
            let entropy = t.points.last().unwrap().operator_entropy;
            assert!(
                entropy < 0.95,
                "P={}: operator probabilities never adapted (entropy {entropy})",
                t.processors
            );
        }
    }
}
