//! Claims on what the wall clock measures: the `T_F` of a run with an
//! injected delay, the thread `T_C` probe, and the `T_A` the virtual
//! executor charges in `TaMode::Measured`, with what that `T_A` leads to
//! (Table II's simulation error, the fitted model's error past saturation,
//! the P where elapsed time stops falling).
//! A loaded host stretches each of them without bound (a 2 ms injection
//! beside a running test suite on two vCPUs reads 4.1–5.5 ms), so they are
//! ignored by default and `ci.sh` runs them in one process with `cargo test
//! --release -p borg-experiments --test fit_bands -- --ignored`, bounds
//! unchanged. Tier-1 keeps what holds under any load: the lower bounds (a
//! delay is never early, `T_A > 0`) and, for the saturation claims, twins
//! on sampled `T_A`.

use borg_core::algorithm::BorgConfig;
use borg_experiments::fitdemo::{run_fit_demo, FitDemoConfig};
use borg_experiments::suite::PaperProblem;
use borg_experiments::table2::{run_table2, Table2Config};
use borg_models::analytical::{
    async_parallel_time, processor_upper_bound, relative_error, TimingParams,
};
use borg_models::dist::Dist;
use borg_models::distfit::{best_fit, WithSampleLog};
use borg_models::perfsim::{simulate_async, PerfSimConfig, TimingModel};
use borg_obs::{Activity, NoopRecorder};
use borg_parallel::threads::{run_threaded_observed, ThreadedConfig};
use borg_parallel::virtual_exec::{run_virtual_async, TaMode, VirtualConfig};
use borg_problems::dtlz::Dtlz;

#[test]
#[ignore = "wall-clock band; ci.sh runs it in release"]
fn fit_demo_reads_the_injected_delay_within_bands() {
    let cfg = FitDemoConfig {
        workers: 2,
        evaluations: 400,
        t_f: 0.002,
        seed: 9,
    };
    let demo = run_fit_demo(&cfg).expect("fit demo run");
    // The injected 2 ms plus the delay's overshoot stays under twice it.
    assert!(
        demo.tf_stats.mean < 0.004,
        "mean T_F {}",
        demo.tf_stats.mean
    );
    // T_A is microseconds, far below T_F.
    assert!(
        demo.ta_stats.mean < demo.tf_stats.mean / 10.0,
        "mean T_A {} vs mean T_F {}",
        demo.ta_stats.mean,
        demo.tf_stats.mean
    );
    // The thread ping is sub-millisecond.
    assert!(demo.t_c < 0.001, "T_C = {}", demo.t_c);
}

#[test]
#[ignore = "wall-clock band; ci.sh runs it in release"]
fn smoke_table2_measures_t_a_below_10_ms() {
    for r in run_table2(&Table2Config::default().smoke()) {
        assert!(r.t_a < 0.01, "implausible T_A {}", r.t_a);
    }
}

#[test]
#[ignore = "wall-clock band; ci.sh runs it in release"]
fn measured_saturated_cell_keeps_the_simulation_model_close() {
    // UF11, T_F = 1 ms, P = 64: the master saturates, and the simulation
    // model, fed the T_A this host measured, beats Eq. 2 and stays within
    // 50 %. Load stretches T_A's tail past what the fitted family carries.
    let cfg = Table2Config {
        evaluations: 4_000,
        replicates: 2,
        processors: vec![64],
        tf_means: vec![0.001],
        problems: vec![PaperProblem::Uf11],
        ..Table2Config::default()
    };
    let r = &run_table2(&cfg)[0];
    if r.master_utilization > 0.95 {
        assert!(
            r.simulation_error < r.analytical_error,
            "sim err {} should beat analytic err {}",
            r.simulation_error,
            r.analytical_error
        );
    }
    assert!(
        r.simulation_error < 0.5,
        "sim error too large: {}",
        r.simulation_error
    );
}

#[test]
#[ignore = "wall-clock band; ci.sh runs it in release"]
fn measured_elapsed_time_bottoms_out_at_saturation() {
    // DTLZ2, T_F = 1 ms, measured T_A: P = 256 beats P = 16, and P = 1024
    // stays within 30 % of P = 256 (the master-throughput floor). A T_A
    // stretched by load moves P_UB below 16 and the first claim with it.
    let elapsed = |p| {
        let cfg = VirtualConfig {
            processors: p,
            max_nfe: 6_000,
            t_f: Dist::normal_cv(0.001, 0.1),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Measured,
            seed: 1234,
        };
        let borg = BorgConfig::new(5, 0.1);
        run_virtual_async(&Dtlz::dtlz2_5(), borg, &cfg, &NoopRecorder, |_, _| {})
            .outcome
            .elapsed
    };
    let times = [elapsed(16), elapsed(256), elapsed(1024)];
    assert!(
        times[1] < times[0],
        "more workers must help pre-saturation: {times:?}"
    );
    assert!(
        times[2] > times[1] * 0.7,
        "saturated time should flatten, not keep dropping: {times:?}"
    );
}

#[test]
#[ignore = "wall-clock band; ci.sh runs it in release"]
fn measured_analytical_model_fails_and_simulation_model_holds_past_saturation() {
    // DTLZ2, T_F = 1 ms, P = 512, measured T_A: Eq. 2 misses by more than
    // half, and the simulation model fed a fit of the measured T_A stays
    // within 35 % and under a third of Eq. 2's error. Load stretches T_A's
    // tail past what the fitted family carries.
    let (p, nfe, tf) = (512, 10_000, 0.001);
    let cfg = VirtualConfig {
        processors: p,
        max_nfe: nfe,
        t_f: Dist::normal_cv(tf, 0.1),
        t_c: Dist::Constant(0.000_006),
        t_a: TaMode::Measured,
        seed: 1234,
    };
    let borg = BorgConfig::new(5, 0.1);
    let holds = WithSampleLog::new(&NoopRecorder, Activity::Algorithm);
    let run = run_virtual_async(&Dtlz::dtlz2_5(), borg, &cfg, &holds, |_, _| {});
    let elapsed = run.outcome.elapsed;
    let ta = holds.into_log();
    let timing = TimingParams::new(tf, 0.000_006, ta.mean());
    assert!(
        f64::from(p) > processor_upper_bound(timing),
        "test premise broken: P not past P_UB"
    );
    let analytic_err = relative_error(elapsed, async_parallel_time(nfe, p, timing));
    assert!(
        analytic_err > 0.5,
        "expected large analytical error, got {analytic_err}"
    );
    let sim = simulate_async(&PerfSimConfig {
        processors: p,
        evaluations: nfe,
        timing: TimingModel {
            t_f: Dist::normal_cv(tf, 0.1),
            t_c: Dist::Constant(0.000_006),
            t_a: best_fit(ta.retained()),
        },
        seed: 99,
    });
    let sim_err = relative_error(elapsed, sim.parallel_time);
    assert!(
        sim_err < analytic_err / 3.0,
        "simulation error {sim_err} not clearly better than analytical {analytic_err}"
    );
    assert!(sim_err < 0.35, "simulation error {sim_err} too large");
}

#[test]
#[ignore = "wall-clock band; ci.sh runs it in release"]
fn threaded_run_measures_t_f_within_t_f_of_the_injection() {
    let t_f = 0.002;
    let cfg = ThreadedConfig::new(8, 400, Some(Dist::Constant(t_f)), 3);
    let tf = WithSampleLog::new(&NoopRecorder, Activity::Evaluation);
    run_threaded_observed(&Dtlz::dtlz2_5(), BorgConfig::new(5, 0.06), &cfg, &tf).expect("run");
    let mean_tf = tf.into_log().mean();
    assert!((mean_tf - t_f).abs() < t_f, "mean T_F {mean_tf}");
}
