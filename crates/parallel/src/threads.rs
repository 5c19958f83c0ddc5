//! A real-thread asynchronous master-slave executor.
//!
//! This is the wall-clock counterpart of the virtual-time executor, and
//! one of the two links of the one wall-clock master ([`crate::wallclock`];
//! `borg_net::serve` over sockets is the other). Worker threads evaluate
//! candidates that reach them over one in-memory pipe each, optionally
//! with injected delays (the paper's experimental control), and carry
//! every result into the master themselves, under the master lock; the
//! calling thread only keeps the clock. It stands in for the OpenMPI
//! deployment on TACC Ranger at laptop scale and feeds *measured* `T_A` /
//! `T_F` / `T_C` samples into the distribution-fitting pipeline —
//! reproducing the paper's measurement methodology end-to-end.

use borg_core::algorithm::{BorgConfig, BorgEngine};
use borg_core::problem::Problem;
use borg_core::rng::SplitMix64;
use borg_desim::fault::{FaultKind, FaultLog};
use borg_models::dist::Dist;
use borg_models::distfit::SampleLog;
use borg_obs::{Activity, Actor, NoopRecorder, Recorder};
use parking_lot::Mutex;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::delayed::precise_delay;
use crate::wallclock::{keep_clock, lock_master, Failure, Link, Master, MasterConfig};

/// Configuration of a real-thread run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Number of worker threads (`P − 1`).
    pub workers: usize,
    /// Evaluations to perform.
    pub max_nfe: u64,
    /// Optional injected wall-clock delay per evaluation.
    pub delay: Option<Dist>,
    /// Seed (engine + per-worker delay streams).
    pub seed: u64,
}

impl ThreadedConfig {
    /// `workers` threads, `max_nfe` evaluations, each delayed by a draw
    /// from `delay` if given.
    pub fn new(workers: usize, max_nfe: u64, delay: Option<Dist>, seed: u64) -> Self {
        Self {
            workers,
            max_nfe,
            delay,
            seed,
        }
    }
}

/// Result of a real-thread run.
#[derive(Debug)]
pub struct ThreadedRunResult {
    /// Wall-clock elapsed seconds.
    pub elapsed: f64,
    /// Final engine state.
    pub engine: BorgEngine,
    /// Measured master holds (seconds), one per result the master
    /// handles: result in, consume, the produce and dispatch that follow,
    /// out. A healthy pool logs `N`.
    pub ta: SampleLog,
    /// Measured evaluation times (seconds, including injected delay), as
    /// seen by the workers. One per *consumed* result, `N`.
    pub tf: SampleLog,
    /// Recovery ledger: the deaths of worker threads that ended outside
    /// `Problem::evaluate`, and their reissues (empty on a healthy run).
    pub fault_log: FaultLog,
}

/// Objective value substituted for evaluations that panicked: finite (so
/// ε-box arithmetic stays well-defined) but worse than any real objective.
pub(crate) const PANIC_OBJECTIVE: f64 = 1e30;

/// Failures of the real-thread executor.
///
/// Worker threads catch panics inside `Problem::evaluate` and report a
/// sentinel result, so under normal operation none of these occur; they
/// surface as structured errors (instead of master-side panics) if the
/// worker pool dies anyway — e.g. a panic in the delay sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadedError {
    /// Every worker thread died while evaluations were still owed.
    WorkersDisconnected {
        /// Evaluations the engine had consumed when the pool died.
        nfe_completed: u64,
        /// Dispatched candidates whose results will never arrive.
        in_flight: usize,
    },
    /// A worker reported a result the master cannot use.
    UnknownResultId(u64),
    /// The echo thread of [`estimate_comm_time`] hung up mid-measurement.
    CommProbeDisconnected,
    /// An evaluation was reissued more than the hard cap and still never
    /// produced a result (e.g. every surviving worker is hung).
    ReissueLimitExceeded {
        /// The evaluation that could not be completed.
        eval_id: u64,
    },
}

impl std::fmt::Display for ThreadedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkersDisconnected {
                nfe_completed,
                in_flight,
            } => write!(
                f,
                "all worker threads disconnected after {nfe_completed} evaluations \
                 with {in_flight} candidates in flight"
            ),
            Self::UnknownResultId(id) => {
                write!(f, "worker reported unknown result id {id}")
            }
            Self::CommProbeDisconnected => {
                write!(f, "comm-time echo thread disconnected mid-measurement")
            }
            Self::ReissueLimitExceeded { eval_id } => {
                write!(f, "evaluation {eval_id} exceeded the reissue limit")
            }
        }
    }
}

impl std::error::Error for ThreadedError {}

impl From<Failure> for ThreadedError {
    fn from(failure: Failure) -> Self {
        match failure {
            Failure::PoolLost {
                completed,
                in_flight,
            } => Self::WorkersDisconnected {
                nfe_completed: completed,
                in_flight,
            },
            Failure::ReissueLimit { eval_id } => Self::ReissueLimitExceeded { eval_id },
            Failure::BadResult { eval_id, .. } => Self::UnknownResultId(eval_id),
        }
    }
}

/// One dispatched evaluation, as it travels down a worker's pipe.
struct WorkItem {
    id: u64,
    variables: Vec<f64>,
}

/// The master's [`Link`] to worker threads: one in-memory pipe each. It
/// also keeps what only this executor measures — `T_F` as the workers
/// report it, `T_A` as the holds of the master.
struct Pipes<'a, R: ?Sized> {
    /// `None` once severed; dropping the sender ends that worker's loop.
    pipes: Vec<Option<mpsc::Sender<WorkItem>>>,
    ta: SampleLog,
    tf: SampleLog,
    rec: &'a R,
}

impl<R: Recorder + ?Sized> Link for Pipes<'_, R> {
    /// The evaluation's measured seconds.
    type Receipt = f64;

    fn send_work(
        &mut self,
        target: usize,
        eval_id: u64,
        _attempt: u32,
        _seq: u64,
        variables: &[f64],
        _now: f64,
    ) -> bool {
        let item = WorkItem {
            id: eval_id,
            variables: variables.to_vec(),
        };
        self.pipes[target]
            .as_ref()
            .is_some_and(|pipe| pipe.send(item).is_ok())
    }

    fn is_up(&self, target: usize) -> bool {
        self.pipes[target].is_some()
    }

    fn sever(&mut self, target: usize) {
        self.pipes[target] = None;
    }

    fn consumed(
        &mut self,
        _worker: usize,
        _eval_id: u64,
        eval_seconds: &f64,
        _sent: f64,
        _now: f64,
    ) {
        self.tf.push(*eval_seconds);
    }

    fn held(&mut self, from: f64, to: f64) {
        self.ta.push(to - from);
        self.rec.span(Actor::Master, Activity::Algorithm, from, to);
    }
}

type ThreadMaster<'a, R> = Mutex<Master<'a, Pipes<'a, R>, R>>;

/// Reports a worker thread's death when it ends for any reason but the end
/// of the run — a panic outside `Problem::evaluate` — the
/// in-process stand-in for a connection's EOF. Without it a pool that died
/// quietly would leave the clock ticking forever.
struct Obituary<'m, 'a, R: Recorder + ?Sized> {
    master: &'m ThreadMaster<'a, R>,
    worker: usize,
}

impl<R: Recorder + ?Sized> Drop for Obituary<'_, '_, R> {
    fn drop(&mut self) {
        // A no-op once the run is over or the death is already known.
        lock_master(self.master).on_death(self.worker, FaultKind::Crash);
    }
}

/// One worker thread: evaluates what comes down its pipe and carries each
/// result into the master itself, under the master lock, exactly as a
/// connection thread of `borg_net::serve` does.
fn worker_loop<P: Problem + ?Sized, R: Recorder + ?Sized>(
    w: usize,
    pipe: &mpsc::Receiver<WorkItem>,
    master: &ThreadMaster<'_, R>,
    problem: &P,
    config: &ThreadedConfig,
    rec: &R,
) {
    let _obituary = Obituary { master, worker: w };
    let start = master.lock().epoch();
    let mut rng = SplitMix64::new(config.seed ^ (w as u64) << 32).derive("threaded-worker");
    let mut objs = vec![0.0; problem.num_objectives()];
    let mut cons = vec![0.0; problem.num_constraints()];
    #[expect(
        clippy::disallowed_methods,
        reason = "blocking is safe: the master drops this pipe's sender when it declares \
                  the worker dead and at the end of the run"
    )]
    while let Ok(item) = pipe.recv() {
        let t0 = Instant::now();
        if let Some(d) = config.delay {
            precise_delay(d.sample(&mut rng));
        }
        // User evaluation code may panic. A panicking evaluation is
        // reported as a worst-possible result (huge objectives) so the
        // engine's dominance machinery discards it naturally and the run
        // — and the worker — keep going.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            problem.evaluate(&item.variables, &mut objs, &mut cons);
        }));
        if outcome.is_err() {
            objs.fill(PANIC_OBJECTIVE);
            cons.fill(PANIC_OBJECTIVE);
        }
        let eval_seconds = t0.elapsed().as_secs_f64();
        let eval_end = start.elapsed().as_secs_f64();
        rec.span(
            Actor::Worker(w),
            Activity::Evaluation,
            eval_end - eval_seconds,
            eval_end,
        );
        if lock_master(master).on_result(w, item.id, &objs, &cons, eval_seconds) {
            return;
        }
    }
}

/// Runs the Borg MOEA on real threads.
///
/// Nondeterministic across runs (OS scheduling decides result arrival
/// order) but all engine invariants hold; use the virtual executor for
/// reproducible experiments.
///
/// No wait on the master's side is unbounded: results are handled by the
/// worker threads that computed them, and the calling thread only keeps
/// the clock, waking every tick until the run ends. A worker thread that
/// dies outside `Problem::evaluate` reports its own death; its evaluations
/// go to the survivors, and the ledger in [`ThreadedRunResult::fault_log`]
/// records it. Fault injection lives in the virtual executor
/// ([`crate::virtual_exec::run_virtual_async_with`]) and on the wire
/// (`borg_net`'s chaos proxy).
///
/// # Errors
/// [`ThreadedError`] if the worker pool dies before the evaluation budget
/// completes (panicking *evaluations* are tolerated and do not cause this;
/// see `PANIC_OBJECTIVE`) or an evaluation exhausts its reissue budget.
pub fn run_threaded<P: Problem + ?Sized>(
    problem: &P,
    borg: BorgConfig,
    config: &ThreadedConfig,
) -> Result<ThreadedRunResult, ThreadedError> {
    run_threaded_observed(problem, borg, config, &NoopRecorder)
}

/// [`run_threaded`] emitting telemetry through `rec`: master `Algorithm`
/// spans (one per hold) and worker `Evaluation` spans (wall-clock seconds
/// since run start), protocol event/command counters, and end-of-run
/// master-occupancy gauges. The recorder is shared with the worker
/// threads, so it must be [`Sync`].
///
/// # Errors
/// As [`run_threaded`].
pub fn run_threaded_observed<P: Problem + ?Sized, R: Recorder + Sync + ?Sized>(
    problem: &P,
    borg: BorgConfig,
    config: &ThreadedConfig,
    rec: &R,
) -> Result<ThreadedRunResult, ThreadedError> {
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..config.workers)
        .map(|_| {
            let (tx, rx) = mpsc::channel::<WorkItem>();
            (Some(tx), rx)
        })
        .unzip();
    let master = Master::new(
        problem,
        borg,
        &MasterConfig {
            workers: config.workers,
            max_nfe: config.max_nfe,
            engine_seed: SplitMix64::new(config.seed).derive_seed("threaded-engine"),
            reissue_timeout: None,
            heartbeat_timeout: f64::INFINITY,
        },
        Pipes {
            pipes: senders,
            ta: SampleLog::new(),
            tf: SampleLog::new(),
            rec,
        },
        rec,
    );
    let master = Mutex::new(master);
    std::thread::scope(|scope| {
        for (w, pipe) in receivers.into_iter().enumerate() {
            let master = &master;
            scope.spawn(move || worker_loop(w, &pipe, master, problem, config, rec));
        }
        keep_clock(&master);
        // Whatever the verdict: close every pipe so idle workers leave
        // their `recv` and the scope's join returns.
        master.lock().link_mut().pipes.fill(None);
    });
    let run = master.into_inner().finish()?;
    Ok(ThreadedRunResult {
        elapsed: run.elapsed,
        engine: run.engine,
        ta: run.link.ta,
        tf: run.link.tf,
        fault_log: run.fault_log,
    })
}

/// Estimates the one-way message time `T_C` between two threads on this
/// machine by ping-ponging `rounds` messages over channels and halving the
/// mean round trip — the thread-level analogue of the paper's MPI
/// round-trip measurement (they report 6 µs on TACC Ranger). What it times
/// is a channel wake-up from one thread to another, which [`run_threaded`]
/// no longer pays per message: a worker carries its own result into the
/// master and finds its next item already in its pipe.
pub fn estimate_comm_time(rounds: u32) -> Result<f64, ThreadedError> {
    assert!(rounds >= 1);
    let (ping_tx, ping_rx) = mpsc::sync_channel::<()>(1);
    let (pong_tx, pong_rx) = mpsc::sync_channel::<()>(1);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            #[expect(
                clippy::disallowed_methods,
                reason = "echo side: blocking receive is safe, the measuring side drops \
                          `ping_tx` on every path, ending this loop"
            )]
            while ping_rx.recv().is_ok() {
                if pong_tx.send(()).is_err() {
                    break;
                }
            }
        });
        let ping_pong = |times: u32| -> Result<(), ThreadedError> {
            for _ in 0..times {
                ping_tx
                    .send(())
                    .map_err(|_| ThreadedError::CommProbeDisconnected)?;
                // A same-machine echo answering slower than 5 s means the
                // probe thread is gone or wedged; bail rather than block.
                pong_rx
                    .recv_timeout(Duration::from_secs(5))
                    .map_err(|_| ThreadedError::CommProbeDisconnected)?;
            }
            Ok(())
        };
        // Measure inside an inner closure so the echo thread's sender is
        // dropped (ending it) on every path.
        let measured = (|| {
            ping_pong(16)?; // warm-up
            let start = Instant::now();
            ping_pong(rounds)?;
            Ok(start.elapsed().as_secs_f64() / rounds as f64 / 2.0)
        })();
        drop(ping_tx);
        measured
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_obs::{FlightRecorder, WithFlight};
    use borg_problems::dtlz::{Dtlz, DtlzVariant};

    #[test]
    fn threaded_run_completes_exact_nfe() {
        let problem = Dtlz::new(DtlzVariant::Dtlz2, 2);
        let cfg = ThreadedConfig::new(4, 2_000, None, 1);
        let result = run_threaded(&problem, BorgConfig::new(2, 0.01), &cfg).expect("run");
        assert_eq!(result.engine.nfe(), 2_000);
        assert!(result.engine.archive().len() > 5);
        result.engine.archive().check_invariants().unwrap();
        assert_eq!(result.tf.count(), 2_000);
        assert!(result.elapsed > 0.0);
    }

    /// Every bit a search ends with: NFE, restarts, each archive member's
    /// variables, objectives and constraints, and the population's
    /// variable and objective rows.
    fn fingerprint(engine: &BorgEngine) -> Vec<u64> {
        let mut bits = vec![engine.nfe(), engine.stats().restarts];
        for m in engine.archive().members() {
            let rows = m
                .variables()
                .iter()
                .chain(m.objectives())
                .chain(m.constraints());
            bits.extend(rows.map(|x| x.to_bits()));
        }
        let population = engine.population();
        for i in 0..population.len() {
            bits.extend(population.variables(i).iter().map(|x| x.to_bits()));
            bits.extend(population.objectives(i).map(f64::to_bits));
        }
        bits
    }

    #[test]
    fn one_worker_runs_the_serial_search() {
        // With one worker the loop is strictly produce → evaluate →
        // consume: the run is `run_serial`'s for the same engine seed.
        let problem = Dtlz::new(DtlzVariant::Dtlz2, 2);
        let borg = BorgConfig::new(2, 0.01);
        let cfg = ThreadedConfig::new(1, 3_000, None, 41);
        let run = run_threaded(&problem, borg.clone(), &cfg).expect("run");
        let seed = SplitMix64::new(cfg.seed).derive_seed("threaded-engine");
        let serial = borg_core::algorithm::run_serial(&problem, borg, seed, cfg.max_nfe, |_| {});
        assert_eq!(fingerprint(&run.engine), fingerprint(&serial));
    }

    #[test]
    fn threaded_run_converges_like_serial() {
        let problem = Dtlz::new(DtlzVariant::Dtlz2, 2);
        let cfg = ThreadedConfig::new(8, 6_000, None, 2);
        let result = run_threaded(&problem, BorgConfig::new(2, 0.01), &cfg).expect("run");
        // Archive close to the true front, the unit circle: ‖f‖ = 1.
        let worst = result
            .engine
            .archive()
            .members()
            .map(|s| (s.objectives().iter().map(|f| f * f).sum::<f64>().sqrt() - 1.0).abs())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(worst < 0.4, "archive far from front: {worst}");
    }

    #[test]
    fn injected_delay_dominates_elapsed_time() {
        let problem = Dtlz::dtlz2_5();
        let t_f = 0.002;
        let nfe = 400u64;
        let workers = 8usize;
        let cfg = ThreadedConfig::new(workers, nfe, Some(Dist::Constant(t_f)), 3);
        let ring = FlightRecorder::new(4_096);
        let rec = WithFlight::new(&NoopRecorder, &ring);
        let result =
            run_threaded_observed(&problem, BorgConfig::new(5, 0.06), &cfg, &rec).expect("run");
        // The engine's commands, in order, from the flight ring: the code
        // and (for a dispatch) the attempt in `x`.
        let commands: Vec<(&str, f64)> = ring
            .events()
            .iter()
            .filter_map(|e| Some((e.code.strip_prefix("engine.commands.")?, e.x)))
            .collect();
        let ideal = nfe as f64 * t_f / workers as f64;
        assert!(
            result.elapsed >= ideal * 0.9,
            "{} < {}",
            result.elapsed,
            ideal
        );
        // Parallelism is asserted on the protocol transcript, not the wall
        // clock (a loaded runner can stretch elapsed time arbitrarily):
        // the master must seed the whole pool before consuming anything,
        // keep `workers` evaluations outstanding until only the tail is
        // left, and refill the slot immediately after every consume.
        let mut outstanding = 0usize;
        let mut consumed = 0u64;
        for (i, &(code, attempt)) in commands.iter().enumerate() {
            if i < workers {
                assert_eq!(
                    code, "dispatch",
                    "master consumed before the pool was seeded at {i}"
                );
            }
            match code {
                "dispatch" if attempt == 0.0 => {
                    outstanding += 1;
                    assert!(outstanding <= workers, "overdispatched at command {i}");
                }
                "consume" => {
                    outstanding -= 1;
                    consumed += 1;
                    if consumed + (workers as u64) <= nfe {
                        assert!(
                            matches!(commands.get(i + 1), Some(("dispatch", _))),
                            "consume at command {i} was not followed by a refill"
                        );
                    }
                }
                "finish" => assert_eq!(i, commands.len() - 1),
                other => panic!("fault-free run emitted {other} (x = {attempt})"),
            }
        }
        assert_eq!(consumed, nfe);
        // Measured T_F includes the whole delay, which is never early; its
        // upper band is in `borg-experiments`' `tests/fit_bands.rs`.
        let mean_tf = result.tf.mean();
        assert!(mean_tf >= t_f, "mean T_F {mean_tf}");
    }

    #[test]
    fn panicking_evaluations_do_not_deadlock_or_poison_the_archive() {
        // A problem whose evaluation panics on part of the domain: the run
        // must still complete the full budget and the archive must contain
        // only real (non-sentinel) solutions.
        struct Flaky;
        impl Problem for Flaky {
            fn name(&self) -> &str {
                "Flaky"
            }
            fn num_variables(&self) -> usize {
                2
            }
            fn num_objectives(&self) -> usize {
                2
            }
            fn bounds(&self, _i: usize) -> borg_core::problem::Bounds {
                borg_core::problem::Bounds::unit()
            }
            fn evaluate(&self, vars: &[f64], objs: &mut [f64], _cons: &mut [f64]) {
                assert!(vars[0] <= 0.9, "injected failure region");
                objs[0] = vars[0];
                objs[1] = 1.0 - vars[0] + vars[1];
            }
        }
        // Silence the expected panic backtraces from worker threads.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let cfg = ThreadedConfig::new(3, 1_500, None, 11);
        let result = run_threaded(&Flaky, BorgConfig::new(2, 0.01), &cfg).expect("run");
        std::panic::set_hook(prev_hook);
        assert_eq!(result.engine.nfe(), 1_500);
        assert!(!result.engine.archive().is_empty());
        for s in result.engine.archive().members() {
            assert!(
                s.objectives()
                    .iter()
                    .all(|&o| o < crate::threads::PANIC_OBJECTIVE / 2.0),
                "sentinel leaked into the archive: {:?}",
                s.objectives()
            );
            assert!(s.variables()[0] <= 0.9);
        }
    }

    #[test]
    fn a_pool_that_dies_outside_evaluate_ends_the_run() {
        // A recorder that panics on the worker's evaluation span kills
        // every worker thread after its first evaluation, outside the
        // `catch_unwind` around `evaluate`. Each reports its own death on
        // the way out, so the master runs out of workers and the call
        // comes back — with the workers' panic, which the scope re-raises
        // — instead of ticking forever.
        struct PanicsOnWorkerSpans;
        impl Recorder for PanicsOnWorkerSpans {
            fn span(&self, actor: Actor, _: Activity, _: f64, _: f64) {
                assert!(
                    !matches!(actor, Actor::Worker(_)),
                    "injected recorder failure"
                );
            }
        }
        let problem = Dtlz::new(DtlzVariant::Dtlz2, 2);
        let cfg = ThreadedConfig::new(3, 500, None, 5);
        let outcome = std::panic::catch_unwind(|| {
            run_threaded_observed(
                &problem,
                BorgConfig::new(2, 0.01),
                &cfg,
                &PanicsOnWorkerSpans,
            )
            .map(|run| run.engine.nfe())
        });
        assert!(outcome.is_err(), "{outcome:?}");
    }

    #[test]
    fn fault_free_run_has_empty_ledger() {
        let problem = Dtlz::new(DtlzVariant::Dtlz2, 2);
        let cfg = ThreadedConfig::new(4, 500, None, 3);
        let result = run_threaded(&problem, BorgConfig::new(2, 0.01), &cfg).expect("run");
        assert_eq!(result.fault_log.injected(), 0);
        assert_eq!(result.fault_log.reissues, 0);
        assert_eq!(result.fault_log.wasted_nfe, 0);
    }

    #[test]
    fn comm_time_estimate_is_plausible() {
        let tc = estimate_comm_time(200).expect("probe");
        assert!(tc > 0.0);
        assert!(tc < 0.01, "thread ping should be far under 10 ms: {tc}");
    }

    #[test]
    fn ta_samples_are_recorded_per_interaction() {
        let problem = Dtlz::new(DtlzVariant::Dtlz2, 2);
        let cfg = ThreadedConfig::new(2, 500, None, 4);
        let result = run_threaded(&problem, BorgConfig::new(2, 0.01), &cfg).expect("run");
        // Fault-free: every result is handled once and consumed.
        assert_eq!(result.ta.count(), 500);
        assert_eq!(result.tf.count(), 500);
        assert!(result
            .ta
            .retained()
            .iter()
            .all(|&t| (0.0..1.0).contains(&t)));
    }
}
