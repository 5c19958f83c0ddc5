//! Figure 5: synchronous vs asynchronous efficiency over the
//! `(P, T_F)` plane.
//!
//! The synchronous surface uses Cantú-Paz's analytical model (Eq. 6), the
//! asynchronous surface the queueing simulation model — exactly the pair
//! the paper plots. `T_F` spans `[1e-4, 1]` s and `P` spans `[2, 16384]`,
//! both log-scaled.
//!
//! Note the paper's Figure 5 caption fixes `T_A = 6 µs` and `T_C = 60 µs`
//! (swapping the magnitudes of Table II, where `T_C = 6 µs`); we default
//! to the caption's values and expose both (see DESIGN.md §4).

use crate::report::{ascii_heatmap, TextTable};
use borg_models::analytical::{sync_efficiency, TimingParams};
use borg_models::dist::Dist;
use borg_models::perfsim::{simulate_async, PerfSimConfig, TimingModel};

/// Coefficient of variation of `T_F` in the asynchronous simulation.
const T_F_CV: f64 = 0.1;

/// Configuration for the efficiency heatmaps.
#[derive(Debug, Clone)]
pub struct HeatmapConfig {
    /// `T_F` grid (seconds, log-spaced).
    pub tf_grid: Vec<f64>,
    /// Processor grid (log-spaced).
    pub p_grid: Vec<u32>,
    /// Master algorithm time.
    pub t_a: f64,
    /// One-way communication time.
    pub t_c: f64,
    /// Evaluations per asynchronous simulation (scaled with `P` so every
    /// worker cycles several times).
    pub min_evaluations: u64,
    /// Seed.
    pub seed: u64,
    /// Worker threads for the grid sweep (`0` auto, `1` serial); surfaces
    /// are bit-identical for any value (see `borg-runner`).
    pub jobs: usize,
}

impl Default for HeatmapConfig {
    fn default() -> Self {
        Self {
            tf_grid: log_grid(1e-4, 1.0, 13),
            p_grid: (1..=14).map(|i| 1u32 << i).collect(), // 2 … 16384
            // Figure 5 caption: "T_A and T_C are fixed at 0.000006 and
            // 0.000060 seconds".
            t_a: 0.000_006,
            t_c: 0.000_060,
            min_evaluations: 4_000,
            seed: 5150,
            jobs: 0,
        }
    }
}

impl HeatmapConfig {
    /// The Table II parameterization instead (`T_C = 6 µs`, `T_A = 30 µs`).
    pub fn table2_params(mut self) -> Self {
        self.t_c = 0.000_006;
        self.t_a = 0.000_030;
        self
    }

    /// Smoke-test grid.
    pub fn smoke(mut self) -> Self {
        self.tf_grid = log_grid(1e-4, 1.0, 5);
        self.p_grid = vec![2, 16, 128, 1024];
        self.min_evaluations = 1_000;
        self
    }
}

/// Log-spaced grid of `n` points from `lo` to `hi` inclusive.
pub(crate) fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && lo > 0.0 && hi > lo);
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// The two efficiency surfaces (rows = `T_F` descending, cols = `P`
/// ascending, matching the paper's axes).
#[derive(Debug, Clone)]
pub struct EfficiencySurfaces {
    /// `T_F` row labels (descending).
    pub tf_grid: Vec<f64>,
    /// `P` column labels (ascending).
    pub p_grid: Vec<u32>,
    /// Synchronous efficiency (Eq. 6).
    pub sync: Vec<Vec<f64>>,
    /// Asynchronous efficiency (simulation model).
    pub async_: Vec<Vec<f64>>,
}

/// Computes both surfaces.
///
/// Each `(T_F, P)` grid cell is an independent job (its simulation seed
/// is derived from the cell coordinates alone); cells fan out over
/// `config.jobs` workers and land in a row-major index-ordered buffer, so
/// the surfaces are bit-identical for every `jobs` setting.
pub fn run_figure5(config: &HeatmapConfig) -> EfficiencySurfaces {
    let mut tf_grid = config.tf_grid.clone();
    tf_grid.sort_by(|a, b| b.total_cmp(a)); // descending rows
    let mut jobs = Vec::with_capacity(tf_grid.len() * config.p_grid.len());
    for &tf in &tf_grid {
        for &p in &config.p_grid {
            jobs.push((tf, p));
        }
    }
    let cells = crate::par::run_jobs(config.jobs, jobs, |_, (tf, p)| {
        let t = TimingParams::new(tf, config.t_c, config.t_a);
        // N only normalizes away in the analytical formula.
        let sync_eff = sync_efficiency(1_000_000, p, t);
        let n = config.min_evaluations.max(4 * u64::from(p));
        let pred = simulate_async(&PerfSimConfig {
            processors: p.max(2),
            evaluations: n,
            timing: TimingModel {
                t_f: Dist::normal_cv(tf, T_F_CV),
                t_c: Dist::Constant(config.t_c),
                t_a: Dist::Constant(config.t_a),
            },
            seed: config.seed ^ u64::from(p) ^ tf.to_bits(),
        });
        (sync_eff, pred.efficiency)
    });
    let cols = config.p_grid.len();
    let sync = cells
        .chunks(cols)
        .map(|row| row.iter().map(|&(s, _)| s).collect())
        .collect();
    let async_ = cells
        .chunks(cols)
        .map(|row| row.iter().map(|&(_, a)| a).collect())
        .collect();
    EfficiencySurfaces {
        tf_grid,
        p_grid: config.p_grid.clone(),
        sync,
        async_,
    }
}

impl EfficiencySurfaces {
    /// Renders one surface as CSV (`tf` rows × `P` columns).
    pub fn to_csv(&self, surface: &[Vec<f64>]) -> String {
        let mut header = vec!["tf_seconds".to_string()];
        header.extend(self.p_grid.iter().map(|p| format!("P{p}")));
        let mut t = TextTable::new(header);
        for (tf, row) in self.tf_grid.iter().zip(surface) {
            let mut cells = vec![format!("{tf:.6}")];
            cells.extend(row.iter().map(|e| format!("{e:.4}")));
            t.row(cells);
        }
        t.to_csv()
    }

    /// Renders one surface as an ASCII heatmap.
    pub fn to_ascii(&self, surface: &[Vec<f64>], title: &str) -> String {
        let labels: Vec<String> = self.tf_grid.iter().map(|tf| format!("{tf:.4}")).collect();
        format!(
            "{title} (rows: T_F seconds desc; cols: P = {:?})\n{}",
            self.p_grid,
            ascii_heatmap(surface, &labels, "efficiency: ' '=0 … '@'=1")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_grid_endpoints_and_monotonicity() {
        let g = log_grid(1e-4, 1.0, 5);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 1e-4).abs() < 1e-12);
        assert!((g[4] - 1.0).abs() < 1e-12);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn surfaces_have_grid_shape() {
        let cfg = HeatmapConfig::default().smoke();
        let s = run_figure5(&cfg);
        assert_eq!(s.sync.len(), cfg.tf_grid.len());
        assert_eq!(s.async_.len(), cfg.tf_grid.len());
        assert!(s.sync.iter().all(|r| r.len() == cfg.p_grid.len()));
        // Every efficiency is a valid ratio.
        for row in s.sync.iter().chain(&s.async_) {
            for &e in row {
                assert!((0.0..=1.01).contains(&e), "efficiency {e} out of range");
            }
        }
    }

    #[test]
    fn async_scales_further_than_sync_at_large_tf() {
        // The paper's headline region: T_F large, P large.
        let cfg = HeatmapConfig {
            tf_grid: vec![1.0],
            p_grid: vec![4096],
            min_evaluations: 20_000,
            ..HeatmapConfig::default()
        };
        let s = run_figure5(&cfg);
        let (es, ea) = (s.sync[0][0], s.async_[0][0]);
        // Slightly under the steady-state ceiling because N = 20k gives
        // each of the 4095 workers only ~5 cycles (pipeline-fill cost).
        assert!(ea > 0.85, "async should stay efficient: {ea}");
        assert!(ea > es, "async {ea} must beat sync {es} here");
    }

    #[test]
    fn sync_wins_at_small_p_and_tf() {
        let cfg = HeatmapConfig {
            tf_grid: vec![2e-4],
            p_grid: vec![2],
            min_evaluations: 4_000,
            ..HeatmapConfig::default()
        };
        let s = run_figure5(&cfg);
        assert!(
            s.sync[0][0] > s.async_[0][0],
            "sync {} vs async {}",
            s.sync[0][0],
            s.async_[0][0]
        );
    }

    #[test]
    fn async_has_lower_bound_frontier() {
        // §VI-B: the asynchronous surface shows a viability frontier —
        // small T_F cannot run efficiently at scale.
        let cfg = HeatmapConfig {
            tf_grid: vec![1e-4],
            p_grid: vec![256],
            min_evaluations: 4_000,
            ..HeatmapConfig::default()
        };
        let s = run_figure5(&cfg);
        assert!(
            s.async_[0][0] < 0.1,
            "tiny T_F at P=256 cannot be efficient"
        );
    }

    #[test]
    fn csv_and_ascii_render() {
        let cfg = HeatmapConfig::default().smoke();
        let s = run_figure5(&cfg);
        let csv = s.to_csv(&s.async_);
        assert!(csv.lines().count() == cfg.tf_grid.len() + 1);
        let art = s.to_ascii(&s.sync, "sync");
        assert!(art.contains("sync"));
    }
}
