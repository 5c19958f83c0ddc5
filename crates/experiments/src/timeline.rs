//! Figures 1 and 2: master/worker activity timelines.
//!
//! Reproduces the paper's Gantt-style diagrams of the synchronous (Fig. 1)
//! and asynchronous (Fig. 2) master-slave topologies with `P = 4` (one
//! master, three workers), rendering both CSV span data and an ASCII
//! chart. With constant times the asynchronous chart shows the workers in
//! perpetual evaluation and the master briefly busy per result — exactly
//! the reduced idle time the paper highlights.

use borg_models::analytical::TimingParams;
use borg_models::perfsim::{simulate_async_traced, simulate_sync, PerfSimConfig, TimingModel};
use borg_obs::InMemoryRecorder;

/// Configuration for the timeline figures.
#[derive(Debug, Clone, Copy)]
pub struct TimelineConfig {
    /// Total processors (paper: 4).
    pub processors: u32,
    /// Evaluations to draw (enough for a few cycles).
    pub evaluations: u64,
    /// Timing constants, scaled for legibility (`T_F : T_A : T_C` roughly
    /// as in the paper's figures).
    pub timing: TimingParams,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        Self {
            processors: 4,
            evaluations: 12,
            timing: TimingParams::new(0.008, 0.001, 0.002),
        }
    }
}

/// A rendered timeline: span CSV + ASCII Gantt chart + summary line.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Span data (`actor,activity,start,end`).
    pub csv: String,
    /// ASCII chart (C = T_C, A = T_A, F = T_F, . = idle).
    pub ascii: String,
    /// Elapsed simulated time.
    pub elapsed: f64,
    /// Master utilization.
    pub master_utilization: f64,
}

fn config_to_perfsim(config: &TimelineConfig) -> PerfSimConfig {
    PerfSimConfig {
        processors: config.processors,
        evaluations: config.evaluations,
        timing: TimingModel::constant(config.timing),
        seed: 7,
    }
}

/// Figure 1: the synchronous, generational timeline.
pub fn figure1(config: &TimelineConfig) -> Timeline {
    let rec = InMemoryRecorder::new();
    let pred = simulate_sync(&config_to_perfsim(config), &rec);
    let trace = rec.span_trace();
    Timeline {
        csv: trace.to_csv(),
        ascii: trace.to_ascii(96),
        elapsed: pred.parallel_time,
        master_utilization: pred.outcome.master_utilization,
    }
}

/// Figure 2: the asynchronous timeline.
pub fn figure2(config: &TimelineConfig) -> Timeline {
    let rec = InMemoryRecorder::new();
    let pred = simulate_async_traced(&config_to_perfsim(config), &rec);
    let trace = rec.span_trace();
    Timeline {
        csv: trace.to_csv(),
        ascii: trace.to_ascii(96),
        elapsed: pred.parallel_time,
        master_utilization: pred.outcome.master_utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_figures_render() {
        let cfg = TimelineConfig::default();
        let f1 = figure1(&cfg);
        let f2 = figure2(&cfg);
        for t in [&f1, &f2] {
            assert!(t.csv.lines().count() > 4);
            assert!(t.ascii.contains("master"));
            assert!(t.ascii.contains("worker2"));
            assert!(t.elapsed > 0.0);
        }
    }

    #[test]
    fn async_finishes_sooner_than_sync() {
        // The figures' visual point: same work, less idle time.
        let cfg = TimelineConfig::default();
        let f1 = figure1(&cfg);
        let f2 = figure2(&cfg);
        assert!(
            f2.elapsed < f1.elapsed,
            "async {} should beat sync {}",
            f2.elapsed,
            f1.elapsed
        );
    }

    #[test]
    fn async_workers_show_less_idle() {
        let cfg = TimelineConfig::default();
        let f1 = figure1(&cfg);
        let f2 = figure2(&cfg);
        let idle_frac = |t: &Timeline| {
            let rows: Vec<&str> = t
                .ascii
                .lines()
                .filter(|l| l.starts_with("worker"))
                .collect();
            let dots: usize = rows.iter().map(|r| r.matches('.').count()).sum();
            let total: usize = rows
                .iter()
                .map(|r| r.chars().filter(|c| "CAF.".contains(*c)).count())
                .sum();
            dots as f64 / total as f64
        };
        assert!(
            idle_frac(&f2) < idle_frac(&f1),
            "async idle {} vs sync idle {}",
            idle_frac(&f2),
            idle_frac(&f1)
        );
    }

    #[test]
    fn figure1_recorded_stream_is_pinned() {
        // Figure 1's run with its recorder: the span stream and the
        // paper's timing histograms derived from it keep their bits.
        let cfg = TimelineConfig::default();
        let rec = InMemoryRecorder::new();
        let pred = simulate_sync(&config_to_perfsim(&cfg), &rec);
        assert_eq!(pred.parallel_time.to_bits(), 0x3fb2_f1a9_fbe7_6c8e);
        assert_eq!(figure1(&cfg).elapsed.to_bits(), 0x3fb2_f1a9_fbe7_6c8e);
        assert_eq!(rec.span_trace().spans().len(), 55);
        let snap = rec.snapshot();
        let hist = |name: &str| {
            let h = &snap.histograms[name];
            (h.count(), h.sum().to_bits())
        };
        assert_eq!(hist("t_a_seconds"), (16, 0x3fa0_624d_d2f1_a9ff));
        assert_eq!(hist("t_c_seconds"), (18, 0x3f92_6e97_8d4f_df40));
        assert_eq!(hist("idle_seconds"), (9, 0x3f9e_b851_eb85_1ebe));
    }
}
