//! Virtual-time parallel scaling: a miniature Table II on your laptop.
//!
//! Runs the real Borg MOEA on the 5-objective DTLZ2 inside the
//! deterministic virtual-time master-slave executor at processor counts up
//! to 1024 — no cluster required — and compares the measured elapsed
//! (virtual) time against the paper's analytical model (Eq. 2).
//!
//! ```sh
//! cargo run --release --example parallel_scaling
//! ```

use borg_obs::{Activity, NoopRecorder};
use borg_repro::core::algorithm::BorgConfig;
use borg_repro::models::analytical::{async_parallel_time, serial_time, TimingParams};
use borg_repro::models::dist::Dist;
use borg_repro::models::distfit::WithSampleLog;
use borg_repro::parallel::virtual_exec::{run_virtual_async, TaMode, VirtualConfig};
use borg_repro::problems::dtlz::Dtlz;

fn main() {
    let problem = Dtlz::dtlz2_5();
    let borg = BorgConfig::new(5, 0.1);
    let nfe = 10_000;
    let t_f = 0.001; // 1 ms simulated evaluations — small enough to saturate
    let t_c = 0.000_006;

    println!("DTLZ2-5D, N = {nfe}, T_F = {t_f}s (CV 0.1), T_C = {t_c}s\n");
    println!(
        "{:>5}  {:>10}  {:>10}  {:>8}  {:>8}  {:>6}",
        "P", "time (s)", "Eq.2 (s)", "err", "eff", "util"
    );

    for p in [4u32, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let vcfg = VirtualConfig {
            processors: p,
            max_nfe: nfe,
            t_f: Dist::normal_cv(t_f, 0.1),
            t_c: Dist::Constant(t_c),
            t_a: TaMode::Measured,
            seed: 7 + u64::from(p),
        };
        let holds = WithSampleLog::new(&NoopRecorder, Activity::Algorithm);
        let result = run_virtual_async(&problem, borg.clone(), &vcfg, &holds, |_, _| {});
        let t = TimingParams::new(t_f, t_c, holds.into_log().mean());
        let eq2 = async_parallel_time(nfe, p, t);
        let t_s = serial_time(nfe, t);
        let elapsed = result.outcome.elapsed;
        println!(
            "{:>5}  {:>10.3}  {:>10.3}  {:>7.0}%  {:>8.2}  {:>6.2}",
            p,
            elapsed,
            eq2,
            (elapsed - eq2).abs() / elapsed * 100.0,
            t_s / (p as f64 * elapsed),
            result.outcome.master_utilization,
        );
    }

    println!(
        "\nNote how elapsed time stops improving once the master saturates\n\
         (Eq. 3: P_UB = T_F / (2 T_C + T_A)) while Eq. 2 keeps predicting\n\
         speedup — the analytical model's failure mode the paper quantifies."
    );
}
