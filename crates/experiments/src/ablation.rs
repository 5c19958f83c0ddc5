//! Ablation studies for the design choices called out in DESIGN.md §5.
//!
//! 1. ε-box archive vs a plain unbounded Pareto archive (size & cost);
//! 2. adaptive operator ensemble vs SBX-only;
//! 3. restart machinery on/off;
//! 4. queueing contention on/off (simulation vs analytical model);
//! 5. evaluation-time variance: sync degrades, async does not.

use crate::report::TextTable;
use crate::suite::PaperProblem;
use borg_core::algorithm::run_serial;
use borg_core::dominance::{pareto_dominance_objectives, Dominance};
use borg_core::rng::SplitMix64;
use borg_metrics::relative::RelativeHypervolume;
use borg_models::analytical::{
    async_parallel_time, async_parallel_time_saturating, relative_error, TimingParams,
};
use borg_models::dist::Dist;
use borg_models::perfsim::{simulate_async, simulate_sync, PerfSimConfig, TimingModel};
use borg_obs::NoopRecorder;
use rand::Rng;
use std::time::Instant;

/// Shared scale knobs for the ablations.
#[derive(Debug, Clone, Copy)]
pub struct AblationConfig {
    /// Evaluations for algorithm-quality ablations.
    pub evaluations: u64,
    /// Replicates.
    pub replicates: u32,
    /// Seed.
    pub seed: u64,
    /// Worker threads for the replicate sweeps (`0` auto, `1` serial);
    /// results are bit-identical for any value (see `borg-runner`).
    pub jobs: usize,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            evaluations: 10_000,
            replicates: 3,
            seed: 77,
            jobs: 0,
        }
    }
}

impl AblationConfig {
    /// Smoke-test scale.
    pub fn smoke(mut self) -> Self {
        self.evaluations = 2_000;
        self.replicates = 1;
        self
    }
}

// ---------------------------------------------------------------------
// 1. Archive ablation
// ---------------------------------------------------------------------

/// A deliberately naive unbounded Pareto archive (the baseline the ε-box
/// archive replaces).
struct PlainParetoArchive {
    points: Vec<Vec<f64>>,
}

impl PlainParetoArchive {
    fn new() -> Self {
        Self { points: Vec::new() }
    }

    fn add(&mut self, p: Vec<f64>) {
        let mut dominated = false;
        self.points
            .retain(|q| match pareto_dominance_objectives(&p, q) {
                Dominance::Dominates => false,
                Dominance::DominatedBy => {
                    dominated = true;
                    true
                }
                Dominance::NonDominated => true,
            });
        if !dominated {
            self.points.push(p);
        }
    }
}

/// Compares archive growth and insertion cost on a stream of random
/// 5-objective points (mimicking early search on DTLZ2-5D).
pub fn ablation_archive(config: &AblationConfig) -> TextTable {
    let mut rng = SplitMix64::new(config.seed).derive("ablation-archive");
    let n = config.evaluations.min(20_000) as usize;
    let points: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            // Random directions with radius shrinking over time — a crude
            // stand-in for converging search.
            let raw: Vec<f64> = (0..5).map(|_| rng.gen::<f64>().max(1e-9)).collect();
            let norm = raw.iter().map(|x| x * x).sum::<f64>().sqrt();
            let r = 1.0 + 2.0 * rng.gen::<f64>();
            raw.into_iter().map(|x| r * x / norm).collect()
        })
        .collect();

    let t0 = Instant::now();
    let mut plain = PlainParetoArchive::new();
    for p in &points {
        plain.add(p.clone());
    }
    let plain_time = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut eps = borg_core::archive::EpsilonArchive::uniform(5, 0.1);
    for p in &points {
        eps.add(borg_core::solution::Solution::from_parts(
            vec![],
            p.clone(),
            vec![],
        ));
    }
    let eps_time = t1.elapsed().as_secs_f64();

    let mut t = TextTable::new(vec![
        "archive",
        "final size",
        "insert time (s)",
        "per insert (us)",
    ]);
    t.row(vec![
        "plain Pareto".to_string(),
        plain.points.len().to_string(),
        format!("{plain_time:.4}"),
        format!("{:.2}", plain_time / n as f64 * 1e6),
    ]);
    t.row(vec![
        "epsilon-box (0.1)".to_string(),
        eps.len().to_string(),
        format!("{eps_time:.4}"),
        format!("{:.2}", eps_time / n as f64 * 1e6),
    ]);
    t
}

// ---------------------------------------------------------------------
// 2–3. Algorithm ablations (operators, restarts)
// ---------------------------------------------------------------------

fn mean_final_hv(
    problem_choice: PaperProblem,
    config: &AblationConfig,
    tweak: impl Fn(&mut borg_core::algorithm::BorgConfig) + Sync,
) -> f64 {
    let reference = problem_choice.reference_front(6);
    let metric = RelativeHypervolume::monte_carlo(&reference, 5_000, config.seed ^ 0xF0);
    let mut split = SplitMix64::new(config.seed);
    let seeds: Vec<u64> = (0..config.replicates)
        .map(|_| split.derive_seed("ablation-hv"))
        .collect();
    let ratios = crate::par::run_jobs(config.jobs, seeds, |_, seed| {
        let problem = problem_choice.build();
        let mut borg = problem_choice.borg_config(0.1);
        tweak(&mut borg);
        let engine = run_serial(problem.as_ref(), borg, seed, config.evaluations, |_| {});
        metric.ratio_rows(engine.archive().objective_rows().iter_rows())
    });
    ratios.iter().sum::<f64>() / config.replicates as f64
}

/// Adaptive six-operator ensemble vs SBX-only.
pub fn ablation_operators(config: &AblationConfig) -> TextTable {
    let mut t = TextTable::new(vec!["problem", "ensemble hv", "SBX-only hv"]);
    for p in PaperProblem::all() {
        let full = mean_final_hv(p, config, |_| {});
        let sbx = mean_final_hv(p, config, |c| c.adaptation_enabled = false);
        t.row(vec![
            p.name().to_string(),
            format!("{full:.3}"),
            format!("{sbx:.3}"),
        ]);
    }
    t
}

/// Restart machinery on vs off.
pub fn ablation_restarts(config: &AblationConfig) -> TextTable {
    let mut t = TextTable::new(vec!["problem", "restarts on hv", "restarts off hv"]);
    for p in PaperProblem::all() {
        let on = mean_final_hv(p, config, |_| {});
        let off = mean_final_hv(p, config, |c| c.restarts_enabled = false);
        t.row(vec![
            p.name().to_string(),
            format!("{on:.3}"),
            format!("{off:.3}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// 4. Contention modelling ablation
// ---------------------------------------------------------------------

/// Shows the error gap between the analytical model (no contention), a
/// saturating correction of it (master-throughput floor, no queueing
/// dynamics), and the queueing simulation as P crosses the saturation
/// bound — decomposing the paper's core argument: how much of Eq. 2's
/// failure is "no ceiling" vs "no queueing".
pub fn ablation_contention(config: &AblationConfig) -> TextTable {
    let timing = TimingParams::new(0.001, 0.000_006, 0.000_030);
    let mut t = TextTable::new(vec![
        "P",
        "sim time",
        "Eq.2",
        "Eq.2 err",
        "saturating",
        "saturating err",
    ]);
    for p in [16u32, 64, 256, 1024] {
        let sim = simulate_async(&PerfSimConfig {
            processors: p,
            evaluations: config.evaluations,
            timing: TimingModel::controlled_delay(timing.t_f, 0.1, timing.t_c, timing.t_a),
            seed: config.seed,
        });
        let analytic = async_parallel_time(config.evaluations, p, timing);
        let saturating = async_parallel_time_saturating(config.evaluations, p, timing);
        t.row(vec![
            p.to_string(),
            format!("{:.3}", sim.parallel_time),
            format!("{analytic:.3}"),
            format!(
                "{:.0}%",
                relative_error(sim.parallel_time, analytic) * 100.0
            ),
            format!("{saturating:.3}"),
            format!(
                "{:.0}%",
                relative_error(sim.parallel_time, saturating) * 100.0
            ),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// 5. Evaluation-time variance ablation
// ---------------------------------------------------------------------

/// §VI-B's closing prediction: increasing the CV of `T_F` degrades the
/// synchronous topology (stragglers stall whole generations) but leaves
/// the asynchronous topology nearly unchanged.
pub fn ablation_variance(config: &AblationConfig) -> TextTable {
    let mut t = TextTable::new(vec!["CV", "async time", "sync time", "sync/async"]);
    for cv in [0.0, 0.1, 0.5, 1.0] {
        let mk = |seed| PerfSimConfig {
            processors: 16,
            evaluations: config.evaluations,
            timing: TimingModel {
                t_f: Dist::normal_cv(0.01, cv),
                t_c: Dist::Constant(0.000_006),
                t_a: Dist::Constant(0.000_030),
            },
            seed,
        };
        let a = simulate_async(&mk(config.seed));
        let s = simulate_sync(&mk(config.seed ^ 1), &NoopRecorder);
        t.row(vec![
            format!("{cv:.1}"),
            format!("{:.3}", a.parallel_time),
            format!("{:.3}", s.parallel_time),
            format!("{:.2}", s.parallel_time / a.parallel_time),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// 6. T_A composition
// ---------------------------------------------------------------------

/// Where the master's algorithm time actually goes, per workload — the
/// explanation for the paper's observation that `T_A` grows with problem
/// complexity (and, through larger archives, with runtime).
pub fn ablation_ta_breakdown(config: &AblationConfig) -> TextTable {
    let mut t = TextTable::new(vec![
        "problem",
        "selection",
        "variation",
        "archive",
        "population",
        "adaptation",
        "restarts",
        "us/eval",
    ]);
    for p in PaperProblem::all() {
        let problem = p.build();
        let mut borg = p.borg_config(0.1);
        borg.profile_ta = true;
        let engine = run_serial(
            problem.as_ref(),
            borg,
            config.seed,
            config.evaluations,
            |_| {},
        );
        let prof = engine.ta_profile();
        let total = prof.total().max(1e-300);
        let pct = |x: f64| format!("{:.0}%", x / total * 100.0);
        t.row(vec![
            p.name().to_string(),
            pct(prof.selection),
            pct(prof.variation),
            pct(prof.archive),
            pct(prof.population),
            pct(prof.adaptation),
            pct(prof.restarts),
            format!("{:.1}", total / config.evaluations as f64 * 1e6),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AblationConfig {
        AblationConfig::default().smoke()
    }

    #[test]
    fn ta_breakdown_percentages_sum_to_about_100() {
        let t = ablation_ta_breakdown(&cfg());
        assert_eq!(t.len(), 2);
        for line in t.to_csv().lines().skip(1) {
            let pct_sum: f64 = line
                .split(',')
                .skip(1)
                .take(6)
                .map(|c| c.trim_end_matches('%').parse::<f64>().unwrap())
                .sum();
            assert!(
                (pct_sum - 100.0).abs() < 3.5,
                "percentages sum to {pct_sum}"
            );
        }
    }

    #[test]
    fn archive_ablation_epsilon_is_bounded_and_cheaper_per_insert() {
        let t = ablation_archive(&AblationConfig {
            evaluations: 5_000,
            ..cfg()
        });
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let plain_size: usize = rows[0].split(',').nth(1).unwrap().parse().unwrap();
        let eps_size: usize = rows[1].split(',').nth(1).unwrap().parse().unwrap();
        assert!(
            eps_size < plain_size,
            "ε-archive ({eps_size}) should be smaller than plain ({plain_size})"
        );
    }

    #[test]
    fn operator_ablation_runs_and_reports_sane_hv() {
        let t = ablation_operators(&cfg());
        assert_eq!(t.len(), 2);
        for line in t.to_csv().lines().skip(1) {
            let hv: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
            assert!((0.0..=1.2).contains(&hv), "hv {hv} out of range");
        }
    }

    #[test]
    fn restart_ablation_runs() {
        let t = ablation_restarts(&cfg());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn contention_ablation_diverges_with_p() {
        let t = ablation_contention(&cfg());
        let csv = t.to_csv();
        let divergences: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| {
                l.split(',')
                    .nth(3)
                    .unwrap()
                    .trim_end_matches('%')
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(
            divergences.last().unwrap() > &50.0,
            "analytical model should diverge at P=1024: {divergences:?}"
        );
        assert!(
            divergences[0] < 10.0,
            "models should agree at P=16: {divergences:?}"
        );
    }

    #[test]
    fn variance_ablation_shows_straggler_effect() {
        let t = ablation_variance(&AblationConfig {
            evaluations: 4_000,
            ..cfg()
        });
        let csv = t.to_csv();
        let ratios: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(3).unwrap().parse().unwrap())
            .collect();
        assert!(
            ratios.last().unwrap() > ratios.first().unwrap(),
            "sync penalty must grow with CV: {ratios:?}"
        );
    }
}
