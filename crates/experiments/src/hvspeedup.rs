//! Figures 3 and 4: hypervolume-threshold speedup.
//!
//! For a quality threshold `h`, `S_P^h = T_S^h / T_P^h` where `T_S^h` /
//! `T_P^h` are the (virtual) times at which the serial / parallel Borg
//! MOEA first attains a reference-set-normalized hypervolume of `h`
//! (§VI-A). Flat speedup lines mean parallelization preserved search
//! quality; nonlinear rising/falling lines appear where the configuration
//! runs inefficiently (large `P`, small `T_F`) — more strongly on the
//! non-separable UF11 than on DTLZ2.

use crate::report::TextTable;
use crate::suite::{PaperProblem, REF_DIVISIONS};
use borg_core::algorithm::BorgEngine;
use borg_core::rng::SplitMix64;
use borg_metrics::relative::RelativeHypervolume;
use borg_models::dist::Dist;
use borg_obs::NoopRecorder;
use borg_parallel::virtual_exec::{run_virtual_async, TaMode, VirtualConfig};

/// Hypervolume thresholds `h` (the x-axis): 0.1, 0.2, …, 1.0.
const THRESHOLDS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Base archive ε of every run.
const EPSILON: f64 = 0.1;

/// Configuration for the hypervolume-speedup experiment.
#[derive(Debug, Clone)]
pub struct HvSpeedupConfig {
    /// Workload (Fig. 3 = DTLZ2, Fig. 4 = UF11).
    pub problem: PaperProblem,
    /// Evaluations per run.
    pub evaluations: u64,
    /// Replicates per configuration (paper: 50).
    pub replicates: u32,
    /// Processor counts (line series).
    pub processors: Vec<u32>,
    /// Mean `T_F` values (panels).
    pub tf_means: Vec<f64>,
    /// Hypervolume sampling cadence in evaluations.
    pub check_every: u64,
    /// Monte-Carlo hypervolume samples (common random numbers).
    pub mc_samples: usize,
    /// Root seed.
    pub seed: u64,
    /// Worker threads for the replicate sweep (`0` auto, `1` serial). The
    /// fan-out adds no nondeterminism — seeds are pre-derived and results
    /// fold in derivation order (see `borg-runner`); measured `T_A` still
    /// charges host timing into the virtual clocks, so repeated runs
    /// differ by machine noise regardless of `jobs`.
    pub jobs: usize,
}

impl HvSpeedupConfig {
    /// Scaled-down defaults for one workload.
    pub fn new(problem: PaperProblem) -> Self {
        Self {
            problem,
            evaluations: 20_000,
            replicates: 2,
            processors: vec![16, 32, 64, 128, 256, 512, 1024],
            tf_means: vec![0.001, 0.01, 0.1],
            check_every: 500,
            mc_samples: 5_000,
            seed: 4242,
            jobs: 0,
        }
    }

    /// Paper-scale settings (N = 100k, 50 replicates).
    ///
    /// Measured on a 2-vCPU Xeon host: `borg-exp fig3 --full --replicates 2
    /// --jobs 2` (measured `T_A`) runs in 17.9 s, `fig4` in 18.7 s.
    /// Extrapolated, not run: 50 replicates take about 25 times as long,
    /// ≈ 7.5 minutes a figure. Each run syncs one hypervolume tracker at
    /// its checkpoints, so the cost grows with the archive rows that
    /// change, not with checkpoints × archive size.
    pub fn paper_scale(mut self) -> Self {
        self.evaluations = 100_000;
        self.replicates = 50;
        self
    }

    /// Smoke-test settings for CI and benches.
    pub fn smoke(mut self) -> Self {
        self.evaluations = 3_000;
        self.replicates = 1;
        self.processors = vec![8, 64];
        self.tf_means = vec![0.01];
        self.check_every = 250;
        self.mc_samples = 2_000;
        self
    }
}

/// One panel (one `T_F`) of Figure 3/4.
#[derive(Debug, Clone)]
pub struct HvSpeedupPanel {
    /// Workload name.
    pub problem: &'static str,
    /// Panel `T_F`.
    pub t_f: f64,
    /// Mean serial time-to-threshold (None = never attained).
    pub serial_times: Vec<Option<f64>>,
    /// Per processor count: mean parallel time-to-threshold and speedups.
    pub series: Vec<HvSeries>,
}

/// One processor-count line in a panel.
#[derive(Debug, Clone)]
pub struct HvSeries {
    /// Processor count `P`.
    pub processors: u32,
    /// Mean parallel time-to-threshold per threshold.
    pub times: Vec<Option<f64>>,
    /// `S_P^h` per threshold (None when either side never attained `h`).
    pub speedups: Vec<Option<f64>>,
}

/// A (time, hypervolume-ratio) trajectory.
type Trajectory = Vec<(f64, f64)>;

fn time_to_threshold(traj: &Trajectory, h: f64) -> Option<f64> {
    traj.iter().find(|(_, hv)| *hv >= h).map(|(t, _)| *t)
}

/// Averages times-to-threshold across replicates. A threshold counts as
/// attained only if every replicate attained it; otherwise its cell is
/// `None` (rendered blank). The more replicates, the likelier one misses a
/// high `h`, so at 50 replicates a blank cell becomes the common case
/// there — see ROADMAP.md item 8 for counting censored replicates instead.
fn mean_times(trajs: &[Trajectory], thresholds: &[f64]) -> Vec<Option<f64>> {
    thresholds
        .iter()
        .map(|&h| {
            let times: Vec<f64> = trajs
                .iter()
                .filter_map(|t| time_to_threshold(t, h))
                .collect();
            (times.len() == trajs.len() && !trajs.is_empty())
                .then(|| times.iter().sum::<f64>() / times.len() as f64)
        })
        .collect()
}

/// Runs one panel of the experiment.
///
/// Every run (the serial baseline replicates and each processor count's
/// replicates) is an independent job: seeds are pre-derived from the
/// panel's SplitMix64 stream in the exact order the old nested loops drew
/// them, the runs fan out over `config.jobs` workers, and each arm's
/// trajectories fold into its mean times in derivation order as soon as
/// its last replicate finishes — so the panel is bit-identical for every
/// `jobs` setting.
pub(crate) fn run_panel(config: &HvSpeedupConfig, t_f: f64) -> HvSpeedupPanel {
    let reference = config.problem.reference_front(REF_DIVISIONS);
    let metric =
        RelativeHypervolume::monte_carlo(&reference, config.mc_samples, config.seed ^ 0xAB);

    let mut split = SplitMix64::new(config.seed ^ t_f.to_bits());

    // Pre-derive every run's seed in the historical order: all serial
    // replicates first, then each processor count's replicates. Arm 0 is
    // the serial baseline, arm `i + 1` runs on `config.processors[i]`.
    let mut seeds: Vec<Vec<u64>> = vec![(0..config.replicates)
        .map(|_| split.derive_seed("hv-serial"))
        .collect()];
    for &p in &config.processors {
        seeds.push(
            (0..config.replicates)
                .map(|_| split.derive_seed("hv-parallel") ^ u64::from(p))
                .collect(),
        );
    }
    let mut arm_times = crate::par::run_groups(
        config.jobs,
        seeds,
        |arm, seed| {
            let processors = arm.checked_sub(1).map(|i| config.processors[i]);
            run_trajectory(config, t_f, &metric, processors, seed)
        },
        |_, trajs| mean_times(&trajs, &THRESHOLDS),
    )
    .into_iter();
    let serial_times = arm_times.next().unwrap_or_default();

    let mut series = Vec::new();
    for (&p, times) in config.processors.iter().zip(arm_times) {
        let speedups = serial_times
            .iter()
            .zip(&times)
            .map(|(s, p)| match (s, p) {
                (Some(s), Some(p)) if *p > 0.0 => Some(s / p),
                _ => None,
            })
            .collect();
        series.push(HvSeries {
            processors: p,
            times,
            speedups,
        });
    }

    HvSpeedupPanel {
        problem: config.problem.name(),
        t_f,
        serial_times,
        series,
    }
}

/// Runs one trajectory (serial when `processors` is `None`), syncing one
/// [`HvTracker`](borg_metrics::mc_hypervolume::HvTracker) at every
/// checkpoint: it counts only the archive rows that changed since the
/// previous checkpoint, and its value is bit-equal to a recompute.
fn run_trajectory(
    config: &HvSpeedupConfig,
    t_f: f64,
    metric: &RelativeHypervolume,
    processors: Option<u32>,
    seed: u64,
) -> Trajectory {
    let problem = config.problem.build();
    let borg = config.problem.borg_config(EPSILON);
    // The serial baseline is the asynchronous master with one worker and
    // free messages: per evaluation it charges the produce, one `T_F` and
    // the consume, Eq. 1's `T_F + T_A`.
    let vcfg = VirtualConfig {
        processors: processors.unwrap_or(2),
        max_nfe: config.evaluations,
        t_f: Dist::normal_cv(t_f, 0.1),
        t_c: Dist::Constant(if processors.is_some() { 0.000_006 } else { 0.0 }),
        t_a: TaMode::Measured,
        seed,
    };
    let mut traj: Trajectory = Vec::new();
    let check = config.check_every.max(1);
    let mut hv = metric.tracker();
    let observe = |t, engine: &BorgEngine| {
        if engine.nfe().is_multiple_of(check) || engine.nfe() == config.evaluations {
            traj.push((t, hv.sync(engine.archive().objective_rows())));
        }
    };
    run_virtual_async(problem.as_ref(), borg, &vcfg, &NoopRecorder, observe);
    traj
}

/// Runs all panels (one per `T_F`).
pub fn run_figure(config: &HvSpeedupConfig) -> Vec<HvSpeedupPanel> {
    config
        .tf_means
        .iter()
        .map(|&tf| run_panel(config, tf))
        .collect()
}

/// Renders one panel as a threshold × processor-count speedup table.
pub fn render_panel(panel: &HvSpeedupPanel) -> TextTable {
    let mut header = vec!["h".to_string()];
    header.extend(panel.series.iter().map(|s| format!("P={}", s.processors)));
    let mut t = TextTable::new(header);
    for (i, &h) in THRESHOLDS.iter().enumerate() {
        let mut row = vec![format!("{h:.2}")];
        for s in &panel.series {
            row.push(match s.speedups[i] {
                Some(v) => format!("{v:.1}"),
                None => "-".to_string(),
            });
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_to_threshold_finds_first_crossing() {
        let traj = vec![(1.0, 0.2), (2.0, 0.5), (3.0, 0.4), (4.0, 0.9)];
        assert_eq!(time_to_threshold(&traj, 0.5), Some(2.0));
        assert_eq!(time_to_threshold(&traj, 0.9), Some(4.0));
        assert_eq!(time_to_threshold(&traj, 0.95), None);
    }

    #[test]
    fn mean_times_requires_all_replicates() {
        let t1 = vec![(1.0, 0.6)];
        let t2 = vec![(3.0, 0.4)];
        let m = mean_times(&[t1, t2], &[0.5]);
        assert_eq!(m, vec![None]); // second replicate never crossed 0.5
    }

    #[test]
    fn tracker_series_is_bit_equal_to_recompute() {
        // Sampled `T_A` makes the run, and so every checkpoint's archive,
        // a function of the seed alone.
        let problem = PaperProblem::Dtlz2;
        let metric = RelativeHypervolume::monte_carlo(&problem.reference_front(6), 2_000, 17);
        let vcfg = VirtualConfig {
            processors: 64,
            max_nfe: 10_000,
            t_f: Dist::normal_cv(0.01, 0.1),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
            seed: 31,
        };
        let mut hv = metric.tracker();
        let (mut tracked, mut recomputed) = (Vec::new(), Vec::new());
        let borg = problem.borg_config(0.1);
        run_virtual_async(
            problem.build().as_ref(),
            borg,
            &vcfg,
            &NoopRecorder,
            |_, engine| {
                if engine.nfe() % 500 == 0 {
                    let rows = engine.archive().objective_rows();
                    tracked.push(hv.sync(rows).to_bits());
                    recomputed.push(metric.ratio_rows(rows.iter_rows()).to_bits());
                }
            },
        );
        assert_eq!(tracked.len(), 20);
        assert_eq!(tracked, recomputed);
        let (first, last) = (f64::from_bits(tracked[0]), f64::from_bits(tracked[19]));
        assert!(last > first && last > 0.5, "series {first} → {last}");
    }

    #[test]
    fn smoke_panel_produces_speedups() {
        let cfg = HvSpeedupConfig::new(PaperProblem::Dtlz2).smoke();
        let panel = run_panel(&cfg, 0.01);
        assert_eq!(panel.series.len(), 2);
        // Low thresholds must be attained and show real speedup.
        let low = panel.series[0].speedups[1]; // h = 0.2, P = 8
        assert!(
            low.is_some(),
            "h=0.2 not attained: {:?}",
            panel.serial_times
        );
        assert!(low.unwrap() > 1.0, "expected parallel speedup, got {low:?}");
        let rendered = render_panel(&panel);
        assert_eq!(rendered.len(), THRESHOLDS.len());
    }

    #[test]
    fn larger_worker_pool_reaches_thresholds_faster_when_efficient() {
        let mut cfg = HvSpeedupConfig::new(PaperProblem::Dtlz2).smoke();
        cfg.processors = vec![4, 32];
        cfg.tf_means = vec![0.1]; // large T_F: parallelism is efficient
        let panel = run_panel(&cfg, 0.1);
        // At an attained low threshold, P=32 must beat P=4 on time.
        let i = 2; // h = 0.3
        if let (Some(t4), Some(t32)) = (panel.series[0].times[i], panel.series[1].times[i]) {
            assert!(t32 < t4, "P=32 ({t32}) not faster than P=4 ({t4})");
        } else {
            panic!("threshold 0.3 unexpectedly unattained");
        }
    }
}
