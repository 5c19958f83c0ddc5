//! The paper's closed-form models (Sections III–IV.A and VI.B).
//!
//! All functions take the paper's timing quantities: `t_f` (function
//! evaluation), `t_c` (one-way message), `t_a` (master-side algorithm
//! time), `n` (total function evaluations) and `p` (processors, one master
//! + `p − 1` workers).

/// Timing parameters of one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingParams {
    /// Function evaluation time `T_F` (seconds).
    pub t_f: f64,
    /// One-way communication time `T_C` (seconds).
    pub t_c: f64,
    /// Master algorithm time `T_A` (seconds).
    pub t_a: f64,
}

impl TimingParams {
    /// Convenience constructor.
    pub fn new(t_f: f64, t_c: f64, t_a: f64) -> Self {
        assert!(t_f >= 0.0 && t_c >= 0.0 && t_a >= 0.0);
        Self { t_f, t_c, t_a }
    }
}

/// Eq. (1): serial runtime `T_S = N (T_F + T_A)`.
pub fn serial_time(n: u64, t: TimingParams) -> f64 {
    n as f64 * (t.t_f + t.t_a)
}

/// Eq. (2): asynchronous master-slave runtime
/// `T_P = N/(P−1) (T_F + 2 T_C + T_A)`.
///
/// # Panics
/// If `p < 2` (the topology needs at least one worker).
pub fn async_parallel_time(n: u64, p: u32, t: TimingParams) -> f64 {
    assert!(p >= 2, "need a master and at least one worker");
    n as f64 / (p - 1) as f64 * (t.t_f + 2.0 * t.t_c + t.t_a)
}

/// Eq. (3): processor-count upper bound before master saturation,
/// `P_UB = T_F / (2 T_C + T_A)`.
pub fn processor_upper_bound(t: TimingParams) -> f64 {
    t.t_f / (2.0 * t.t_c + t.t_a)
}

/// Eq. (4): smallest processor count for which the parallel algorithm
/// beats the serial one, `P_LB > 2 + 2 T_C / (T_F + T_A)`.
pub fn processor_lower_bound(t: TimingParams) -> f64 {
    2.0 + 2.0 * t.t_c / (t.t_f + t.t_a)
}

/// A *saturating* correction of Eq. (2): the master can process at most
/// one result per `2 T_C + T_A`, so elapsed time can never fall below
/// `N (2 T_C + T_A)` regardless of `P`.
///
/// ```text
/// T_P^sat = max( N/(P−1) (T_F + 2T_C + T_A),  N (2T_C + T_A) )
/// ```
///
/// This one-line fix recovers most of the simulation model's accuracy in
/// the deeply-saturated regime (though not in the transition region,
/// where genuine queueing dynamics matter) — exposed so the experiments
/// can quantify exactly how much of the analytical model's Table II error
/// is "no saturation ceiling" versus "no queueing dynamics".
pub fn async_parallel_time_saturating(n: u64, p: u32, t: TimingParams) -> f64 {
    let eq2 = async_parallel_time(n, p, t);
    let floor = n as f64 * (2.0 * t.t_c + t.t_a);
    eq2.max(floor)
}

/// Eq. (6): Cantú-Paz's synchronous master-slave runtime
/// `T_P^sync = N/P (T_F + P T_C + T_A^sync)` with `T_A^sync = P T_A`
/// (each node evaluates one solution per generation; the master processes
/// all `P` offspring serially).
pub(crate) fn sync_parallel_time(n: u64, p: u32, t: TimingParams) -> f64 {
    assert!(p >= 1);
    let pf = p as f64;
    n as f64 / pf * (t.t_f + pf * t.t_c + pf * t.t_a)
}

/// Speedup of the synchronous model against the same serial baseline.
pub(crate) fn sync_speedup(n: u64, p: u32, t: TimingParams) -> f64 {
    serial_time(n, t) / sync_parallel_time(n, p, t)
}

/// Efficiency of the synchronous model.
pub fn sync_efficiency(n: u64, p: u32, t: TimingParams) -> f64 {
    sync_speedup(n, p, t) / p as f64
}

/// Relative error between a prediction and an observation, Eq. (5).
pub fn relative_error(actual: f64, predicted: f64) -> f64 {
    debug_assert!(actual != 0.0);
    (actual - predicted).abs() / actual.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table II's DTLZ2 row at P = 128, T_F = 0.01: T_A = 29 µs, T_C = 6 µs.
    fn dtlz2_p128() -> TimingParams {
        TimingParams::new(0.01, 0.000_006, 0.000_029)
    }

    /// Efficiency `E_P = T_S / (P · T_P)` of Eq. 2.
    fn async_efficiency(n: u64, p: u32, t: TimingParams) -> f64 {
        serial_time(n, t) / async_parallel_time(n, p, t) / p as f64
    }

    #[test]
    fn serial_time_matches_eq1() {
        let t = dtlz2_p128();
        assert!((serial_time(100_000, t) - 1002.9).abs() < 0.1);
    }

    #[test]
    fn async_time_matches_table2_analytical_column() {
        // Paper's analytical predictions for DTLZ2, T_F = 0.01 at N = 100k:
        // P = 128 → 8.0 s; P = 16 → 67.1 s; P = 1024 → 1.0 s.
        let n = 100_000;
        let t16 = TimingParams::new(0.01, 0.000_006, 0.000_023);
        assert!((async_parallel_time(n, 16, t16) - 67.1).abs() < 0.2);
        let t128 = dtlz2_p128();
        assert!((async_parallel_time(n, 128, t128) - 8.0).abs() < 0.1);
        let t1024 = TimingParams::new(0.01, 0.000_006, 0.000_045);
        assert!((async_parallel_time(n, 1024, t1024) - 1.0).abs() < 0.05);
    }

    #[test]
    fn upper_bound_matches_papers_example() {
        // §VI: "DTLZ2 case where T_A = 0.000029, T_C = 0.000006, T_F = 0.01.
        // From (3), the processor count upper bound is 244."
        let pub_ = processor_upper_bound(dtlz2_p128());
        assert!((pub_ - 244.0).abs() < 1.0, "P_UB = {pub_}");
    }

    #[test]
    fn lower_bound_is_at_least_three_processors() {
        // §IV.A: P must strictly exceed the bound and the bound is ≥ 2, so
        // the smallest integer processor count beating serial is 3.
        for (tf, tc, ta) in [
            (1.0, 0.0, 0.0),
            (0.001, 0.000_006, 0.000_03),
            (1e-6, 1.0, 1e-6),
        ] {
            let lb = processor_lower_bound(TimingParams::new(tf, tc, ta));
            assert!(lb >= 2.0);
            let min_p = (lb.floor() as u32 + 1).max(3);
            assert!(min_p >= 3);
        }
        // The bound approaches exactly 2 as T_C → 0.
        let lb0 = processor_lower_bound(TimingParams::new(0.01, 0.0, 0.000_03));
        assert!((lb0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_matches_table2() {
        // Experimental efficiency at peak (DTLZ2, T_F = 0.01, P = 32) was
        // 0.95; the analytical model predicts slightly higher.
        let t = TimingParams::new(0.01, 0.000_006, 0.000_025);
        let e = async_efficiency(100_000, 32, t);
        assert!(e > 0.93 && e <= 1.0, "E = {e}");
    }

    #[test]
    fn analytical_efficiency_is_blind_to_saturation() {
        // Eq. (2)'s efficiency (P−1)/P · (T_F+T_A)/(T_F+2T_C+T_A) is
        // *monotonically increasing* in P — the analytical model cannot see
        // master saturation at all. This is precisely the failure mode
        // Table II demonstrates (98% error at P = 1024, T_F = 1 ms) and
        // what the simulation model exists to fix.
        let t = dtlz2_p128();
        let e64 = async_efficiency(100_000, 64, t);
        let e1024 = async_efficiency(100_000, 1024, t);
        assert!(e64 > 0.9);
        assert!(e1024 > e64, "Eq. 2 predicts ever-growing efficiency");
        let ceiling = (t.t_f + t.t_a) / (t.t_f + 2.0 * t.t_c + t.t_a);
        assert!(e1024 < ceiling);
    }

    #[test]
    fn sync_model_penalizes_large_p() {
        // With T_A^sync = P·T_A the synchronous efficiency collapses once
        // P (T_C + T_A) rivals T_F.
        let t = TimingParams::new(0.01, 0.000_006, 0.000_006);
        let e_small = sync_efficiency(100_000, 8, t);
        let e_large = sync_efficiency(100_000, 4096, t);
        assert!(e_small > 0.9, "E(8) = {e_small}");
        assert!(e_large < 0.2, "E(4096) = {e_large}");
    }

    #[test]
    fn async_scales_to_larger_p_than_sync_at_equal_tf() {
        // The paper's headline comparison: at the same T_F, async sustains
        // efficiency to larger P than sync.
        let t = TimingParams::new(0.1, 0.000_006, 0.000_03);
        let n = 1_000_000;
        let p = 2048;
        let ea = async_efficiency(n, p, t);
        let es = sync_efficiency(n, p, t);
        assert!(ea > 0.9, "async E = {ea}");
        assert!(es < 0.7, "sync E = {es}");
    }

    #[test]
    fn sync_beats_async_at_tiny_p_and_tf() {
        // Fig. 5's other corner: small T_F and small P favour sync because
        // async idles one node as a dedicated master.
        let t = TimingParams::new(0.0005, 0.000_006, 0.000_006);
        let n = 100_000;
        let es = sync_efficiency(n, 4, t);
        let ea = async_efficiency(n, 4, t);
        assert!(es > ea, "sync {es} vs async {ea}");
    }

    #[test]
    fn saturating_model_equals_eq2_below_saturation_and_floors_above() {
        let t = dtlz2_p128(); // P_UB ≈ 244
        let n = 100_000;
        // Below saturation: identical to Eq. 2.
        assert_eq!(
            async_parallel_time_saturating(n, 64, t),
            async_parallel_time(n, 64, t)
        );
        // Above: pinned to the master-throughput floor.
        let floor = n as f64 * (2.0 * t.t_c + t.t_a);
        assert_eq!(async_parallel_time_saturating(n, 1024, t), floor);
        assert!(async_parallel_time(n, 1024, t) < floor);
        // The crossover sits at P − 1 = (T_F + 2T_C + T_A)/(2T_C + T_A),
        // i.e. just past P_UB.
        let p_ub = crate::analytical::processor_upper_bound(t);
        let crossover = 1.0 + (t.t_f + 2.0 * t.t_c + t.t_a) / (2.0 * t.t_c + t.t_a);
        assert!((crossover - (p_ub + 2.0)).abs() < 1.0);
    }

    #[test]
    fn relative_error_matches_eq5() {
        assert!((relative_error(10.0, 8.0) - 0.2).abs() < 1e-12);
        assert!((relative_error(8.0, 10.0) - 0.25).abs() < 1e-12);
        assert_eq!(relative_error(5.0, 5.0), 0.0);
    }
}
