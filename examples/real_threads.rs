//! Wall-clock master-slave execution on real threads, with the paper's
//! §IV-B measurement pipeline: run, measure `T_A`/`T_F`/`T_C`, fit
//! distributions, rank by log-likelihood.
//!
//! ```sh
//! cargo run --release --example real_threads
//! ```

use borg_obs::{Activity, NoopRecorder};
use borg_repro::core::algorithm::BorgConfig;
use borg_repro::models::dist::Dist;
use borg_repro::models::distfit::{fit_all, Family, SampleStats, WithSampleLog};
use borg_repro::parallel::threads::{
    estimate_comm_time, run_threaded, run_threaded_observed, ThreadedConfig,
};
use borg_repro::problems::dtlz::{Dtlz, DtlzVariant};

fn main() {
    let problem = Dtlz::new(DtlzVariant::Dtlz2, 3);
    let t_f = 0.002; // 2 ms injected evaluation delay (CV 0.1)
    let nfe = 1_500;

    // Serial wall-clock baseline: one worker runs `run_serial`'s search.
    let serial = run_threaded(
        &problem,
        BorgConfig::new(3, 0.05),
        &ThreadedConfig::new(1, nfe, Some(Dist::normal_cv(t_f, 0.1)), 99),
    )
    .expect("the worker stays alive");
    let serial_elapsed = serial.elapsed;
    println!(
        "serial:   {nfe} evaluations in {serial_elapsed:.2}s  (archive {})",
        serial.engine.archive().len()
    );

    // Parallel run with 4 workers, keeping the master holds (`T_A`) and
    // the evaluations (`T_F`) its recorder is sent.
    let workers = 4;
    let holds = WithSampleLog::new(&NoopRecorder, Activity::Algorithm);
    let evals = WithSampleLog::new(&holds, Activity::Evaluation);
    let result = run_threaded_observed(
        &problem,
        BorgConfig::new(3, 0.05),
        &ThreadedConfig::new(workers, nfe, Some(Dist::normal_cv(t_f, 0.1)), 2),
        &evals,
    )
    .expect("worker pool stays alive");
    let (evals, holds) = (evals.into_log(), holds.into_log());
    println!(
        "parallel: {nfe} evaluations in {:.2}s with {workers} workers  (archive {})",
        result.elapsed,
        result.engine.archive().len()
    );
    println!(
        "wall-clock speedup: {:.2}x (ideal {workers}x)",
        serial_elapsed / result.elapsed
    );

    // The measurement pipeline.
    let ta = SampleStats::of(holds.retained());
    let tf = SampleStats::of(evals.retained());
    let tc = estimate_comm_time(500).expect("echo thread stays alive");
    println!("\nmeasured timing on this machine:");
    println!("  T_A: mean {:.1}us, cv {:.2}", ta.mean * 1e6, ta.cv());
    println!("  T_F: mean {:.2}ms, cv {:.2}", tf.mean * 1e3, tf.cv());
    println!("  T_C: ~{:.1}us (thread ping-pong / 2)", tc * 1e6);

    println!("\nT_F distribution fits ranked by log-likelihood (the R step of §IV-B):");
    for fit in fit_all(evals.retained(), &Family::all())
        .into_iter()
        .take(4)
    {
        println!(
            "  {:<12} {:?}  ll = {:.1}",
            format!("{:?}", fit.family),
            fit.dist,
            fit.log_likelihood
        );
    }
}
