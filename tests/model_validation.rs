//! Cross-crate validation of the paper's models against the full-algorithm
//! virtual executor — the reproduction-scale analogue of Table II's
//! model-vs-experiment comparison.

use borg_obs::{Activity, NoopRecorder, Recorder};
use borg_repro::core::algorithm::BorgConfig;
use borg_repro::core::rng::SplitMix64;
use borg_repro::models::analytical::{
    async_parallel_time, processor_upper_bound, relative_error, TimingParams,
};
use borg_repro::models::dist::Dist;
use borg_repro::models::distfit::{best_fit, WithSampleLog};
use borg_repro::models::perfsim::{simulate_async, PerfSimConfig, TimingModel};
use borg_repro::parallel::virtual_exec::{
    run_virtual_async, TaMode, VirtualConfig, VirtualRunResult,
};
use borg_repro::problems::dtlz::Dtlz;

fn run_cell(p: u32, nfe: u64, tf: f64, t_a: TaMode, rec: &dyn Recorder) -> VirtualRunResult {
    let problem = Dtlz::dtlz2_5();
    let cfg = VirtualConfig {
        processors: p,
        max_nfe: nfe,
        t_f: Dist::normal_cv(tf, 0.1),
        t_c: Dist::Constant(0.000_006),
        t_a,
        seed: 1234,
    };
    run_virtual_async(&problem, BorgConfig::new(5, 0.1), &cfg, rec, |_, _| {})
}

#[test]
fn analytical_model_is_accurate_below_saturation() {
    // Large T_F, small P: Eq. (2) should be within a few percent of the
    // full-algorithm execution — the paper's low-error cells.
    let (p, nfe, tf) = (16, 5_000, 0.1);
    let holds = WithSampleLog::new(&NoopRecorder, Activity::Algorithm);
    let cell = run_cell(p, nfe, tf, TaMode::Measured, &holds);
    let mean_ta = holds.into_log().mean();
    let eq2 = async_parallel_time(nfe, p, TimingParams::new(tf, 0.000_006, mean_ta));
    let err = relative_error(cell.outcome.elapsed, eq2);
    assert!(
        err < 0.05,
        "analytical error {err} too large below saturation"
    );
}

#[test]
fn analytical_model_fails_and_simulation_model_holds_past_saturation() {
    // Small T_F, large P: the paper's high-error cells. The simulation
    // model — parameterized by distributions *fitted from samples* (the
    // §IV-B pipeline) — must stay far closer than Eq. (2). `T_A` is
    // sampled from a skewed Gamma (mean 30 µs, CV 0.5) so the fit has a
    // spread to recover and P_UB does not depend on the host's load; the
    // executor keeps no log of an input, so the fit reads a seeded draw of
    // the same size, `(P − 1) + N` values, from the same Gamma.
    // `borg-experiments`' `tests/fit_bands.rs`, run by `ci.sh`, repeats the
    // claim on measured `T_A`.
    let (p, nfe, tf) = (512, 10_000, 0.001);
    let gamma = Dist::Gamma {
        shape: 4.0,
        scale: 0.000_007_5,
    };
    let cell = run_cell(p, nfe, tf, TaMode::Sampled(gamma), &NoopRecorder);
    let mut rng = SplitMix64::new(1234).derive("t_a-sample");
    let ta_sample: Vec<f64> = (0..u64::from(p - 1) + nfe)
        .map(|_| gamma.sample(&mut rng))
        .collect();
    let mean_ta = ta_sample.iter().sum::<f64>() / ta_sample.len() as f64;
    let timing = TimingParams::new(tf, 0.000_006, mean_ta);

    // Confirm this configuration is genuinely past the saturation bound.
    assert!(
        f64::from(p) > processor_upper_bound(timing),
        "test premise broken: P not past P_UB"
    );

    let eq2 = async_parallel_time(nfe, p, timing);
    let analytic_err = relative_error(cell.outcome.elapsed, eq2);
    assert!(
        analytic_err > 0.5,
        "expected large analytical error, got {analytic_err}"
    );

    let ta_fit = best_fit(&ta_sample);
    let sim = simulate_async(&PerfSimConfig {
        processors: p,
        evaluations: nfe,
        timing: TimingModel {
            t_f: Dist::normal_cv(tf, 0.1),
            t_c: Dist::Constant(0.000_006),
            t_a: ta_fit,
        },
        seed: 99,
    });
    let sim_err = relative_error(cell.outcome.elapsed, sim.parallel_time);
    assert!(
        sim_err < analytic_err / 3.0,
        "simulation error {sim_err} not clearly better than analytical {analytic_err}"
    );
    assert!(sim_err < 0.35, "simulation error {sim_err} too large");
}

#[test]
fn elapsed_time_bottoms_out_at_saturation() {
    // Table II, T_F = 1 ms: elapsed time falls with P pre-saturation, then
    // flattens at the master-throughput floor `N (2 T_C + T_A)` — adding
    // processors past P_UB buys nothing. `T_A` is sampled at 30 µs (P_UB ≈
    // 24), so where P_UB falls does not depend on the host's load;
    // `borg-experiments`' `tests/fit_bands.rs`, run by `ci.sh`, repeats
    // the claim on measured `T_A`.
    let nfe = 6_000;
    let t_a = TaMode::Sampled(Dist::Constant(0.000_03));
    let times: Vec<f64> = [16u32, 256, 1024]
        .iter()
        .map(|&p| run_cell(p, nfe, 0.001, t_a, &NoopRecorder).outcome.elapsed)
        .collect();
    assert!(times[1] < times[0], "more workers must help pre-saturation");
    assert!(
        times[2] > times[1] * 0.7,
        "saturated time should flatten, not keep dropping: {times:?}"
    );
}

#[test]
fn measured_ta_is_microseconds_on_both_problems() {
    // Only the scale: which problem's wall-clock `T_A` is larger varies
    // with the host. The problem-complexity relation is checked as an
    // exact count by `table2::tests::uf11_archive_outgrows_dtlz2_by_20k_evaluations`.
    use borg_repro::problems::uf::uf11;
    let nfe = 4_000;
    let run_ta = |problem: &dyn borg_repro::core::problem::Problem, eps: Vec<f64>| {
        let mut borg = BorgConfig::new(5, 0.1);
        borg.epsilons = eps;
        let cfg = VirtualConfig {
            processors: 16,
            max_nfe: nfe,
            t_f: Dist::Constant(0.01),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Measured,
            seed: 7,
        };
        let holds = WithSampleLog::new(&NoopRecorder, Activity::Algorithm);
        run_virtual_async(problem, borg, &cfg, &holds, |_, _| {});
        holds.into_log().mean()
    };
    let dtlz2 = Dtlz::dtlz2_5();
    let ta_dtlz2 = run_ta(&dtlz2, vec![0.1; 5]);
    let u = uf11();
    let ta_uf11 = run_ta(&u, vec![0.1, 0.2, 0.3, 0.4, 0.5]);
    // Microsecond scale, like the paper's 23–78 µs (machine-dependent).
    assert!(ta_dtlz2 > 1e-7 && ta_dtlz2 < 5e-3, "T_A = {ta_dtlz2}");
    assert!(ta_uf11 > 1e-7 && ta_uf11 < 5e-3, "T_A = {ta_uf11}");
}

#[test]
fn perfsim_and_full_executor_agree_when_fed_the_same_distributions() {
    // With *sampled* (not measured) T_A the full-algorithm executor and
    // the lightweight performance model share the same queueing dynamics,
    // so their elapsed times must track each other closely at any P.
    let nfe = 8_000;
    let tf = 0.005;
    let ta = 0.000_04;
    for p in [16u32, 128, 1024] {
        let problem = Dtlz::dtlz2_5();
        let vcfg = VirtualConfig {
            processors: p,
            max_nfe: nfe,
            t_f: Dist::normal_cv(tf, 0.1),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Sampled(Dist::Constant(ta)),
            seed: 31,
        };
        let full = run_virtual_async(
            &problem,
            BorgConfig::new(5, 0.1),
            &vcfg,
            &NoopRecorder,
            |_, _| {},
        );
        let sim = simulate_async(&PerfSimConfig {
            processors: p,
            evaluations: nfe,
            timing: TimingModel::controlled_delay(tf, 0.1, 0.000_006, ta),
            seed: 77,
        });
        let err = relative_error(full.outcome.elapsed, sim.parallel_time);
        assert!(
            err < 0.05,
            "P={p}: full {} vs perfsim {} (err {err})",
            full.outcome.elapsed,
            sim.parallel_time
        );
    }
}
