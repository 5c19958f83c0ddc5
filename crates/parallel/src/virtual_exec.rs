//! Virtual-time master-slave executors running the **real** Borg MOEA.
//!
//! These executors are the reproduction's "experimental arm" (see
//! DESIGN.md §2): the actual algorithm — population, ε-archive, operator
//! adaptation, restarts — runs inside a deterministic discrete-event
//! simulation of the master-slave topology. Evaluation delays `T_F`,
//! message times `T_C` and (optionally) algorithm times `T_A` are sampled
//! from the controlled distributions of the paper's experiment; `T_A` can
//! instead be *measured* from the real wall-clock cost of the engine's
//! produce/consume calls, which reproduces the paper's observation that
//! `T_A` grows with processor count and problem complexity.

use crate::master_core::MasterCore;
use borg_core::algorithm::{BorgConfig, BorgEngine};
use borg_core::problem::Problem;
use borg_core::rng::SplitMix64;
use borg_desim::fault::{FaultConfig, FaultLog, FaultPlan};
use borg_models::dist::Dist;
use borg_models::perfsim::TimingModel;
use borg_models::queueing::{
    run_async_with, AsyncRun, MasterSlaveHooks, RecoveryPolicy, RunOutcome, SampledTiming,
};
use borg_obs::Recorder;
use borg_protocol::EngineConfig;
use std::time::Instant;

/// How the executor charges master algorithm time `T_A`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaMode {
    /// Sample from a distribution (like the performance model). The draws
    /// are an input, like `T_F`: the run keeps no log of them, and they
    /// reach the recorder only as `Algorithm` spans (`t_a_seconds`).
    Sampled(Dist),
    /// Measure the real wall-clock time of the engine's produce/consume
    /// calls and use it as simulated seconds (the "experimental" mode).
    /// Each hold reaches the recorder as one `Algorithm` span, like a draw.
    Measured,
}

/// Configuration of a virtual-time parallel run.
#[derive(Debug, Clone)]
pub struct VirtualConfig {
    /// Total processors `P` (one master + `P − 1` workers).
    pub processors: u32,
    /// Function evaluations to perform.
    pub max_nfe: u64,
    /// Evaluation-delay distribution (the paper's controlled `T_F`).
    pub t_f: Dist,
    /// One-way message-time distribution.
    pub t_c: Dist,
    /// Master algorithm-time source.
    pub t_a: TaMode,
    /// Master seed (split into engine / delay streams).
    pub seed: u64,
}

impl VirtualConfig {
    /// The worker pool `P − 1`.
    fn workers(&self) -> usize {
        assert!(
            self.processors >= 2,
            "need a master and at least one worker"
        );
        (self.processors - 1) as usize
    }
}

/// Result of a virtual-time parallel run, without timing samples: each
/// `T_F` reaches the recorder as an `Evaluation` span (`N + P − 2` for
/// [`run_virtual_async`], `N` for a quiet [`run_virtual_async_with`]), each
/// master hold's `T_A` as an `Algorithm` span (`(P − 1) + N`).
#[derive(Debug)]
pub struct VirtualRunResult {
    /// Queueing outcome (elapsed virtual time, utilization, waits).
    pub outcome: RunOutcome,
    /// Final engine state (archive, statistics).
    pub engine: BorgEngine,
    /// Fault-injection/recovery ledger. Empty (default) without fault
    /// injection.
    pub fault_log: FaultLog,
}

/// Where a produced candidate's objectives come from — the one thing that
/// differs between the virtual executor (evaluates in-process) and the
/// networked chaos harness in `borg-net` (ships the candidate over a real
/// socket and waits for the worker's result frame).
pub trait ObjectiveSource {
    /// Work item `eval_id` leaves the master for `worker` at virtual time
    /// `now`: once when it is produced, again on every reissue (same
    /// `variables`).
    fn send(&mut self, worker: usize, eval_id: u64, variables: &[f64], now: f64);

    /// The result of `eval_id`, delivered by `worker`, is being consumed
    /// at `now`: write its objectives and constraints.
    fn receive(
        &mut self,
        worker: usize,
        eval_id: u64,
        variables: &[f64],
        now: f64,
        objectives: &mut [f64],
        constraints: &mut [f64],
    );
}

/// In-process evaluation: nothing to send, and the result is computed when
/// the master consumes it (we are single-threaded; the evaluation's
/// *virtual* duration is the sampled `T_F`, matching the paper's
/// controlled delays).
impl<P: Problem + ?Sized> ObjectiveSource for &P {
    fn send(&mut self, _worker: usize, _eval_id: u64, _variables: &[f64], _now: f64) {}

    fn receive(
        &mut self,
        _worker: usize,
        _eval_id: u64,
        variables: &[f64],
        _now: f64,
        objectives: &mut [f64],
        constraints: &mut [f64],
    ) {
        self.evaluate(variables, objectives, constraints);
    }
}

/// The hooks wiring a [`BorgEngine`] and an [`ObjectiveSource`] into the
/// queueing engine — the one hook set behind every executor that runs the
/// real algorithm on the DES clock. It is the simulation model's
/// [`SampledTiming`] with the search beside it: every delay is that type's
/// draw, except that under [`TaMode::Measured`] each hold charges the
/// search's own produce/consume seconds and no `T_A` is drawn (reissues are
/// free: the candidate already exists). Work items are keyed by evaluation
/// id, so a reissued evaluation re-sends the same candidate and the
/// first-arriving copy wins.
pub struct BorgHooks<S, F> {
    core: MasterCore,
    source: S,
    objs_buf: Vec<f64>,
    cons_buf: Vec<f64>,
    observer: F,
    timing: SampledTiming,
    measured: bool,
}

impl<S: ObjectiveSource, F: FnMut(f64, &BorgEngine)> BorgHooks<S, F> {
    /// Hooks for `problem` under `config`'s timing and seed.
    pub fn new<P: Problem + ?Sized>(
        problem: &P,
        source: S,
        config: &VirtualConfig,
        borg: BorgConfig,
        observer: F,
    ) -> Self {
        let (engine_seed, timing) = seeded_timing(config);
        Self {
            core: MasterCore::new(problem, borg, engine_seed),
            source,
            objs_buf: vec![0.0; problem.num_objectives()],
            cons_buf: vec![0.0; problem.num_constraints()],
            observer,
            timing,
            measured: matches!(config.t_a, TaMode::Measured),
        }
    }

    /// Packages the finished `run` with the engine, handing the objective
    /// source back.
    pub fn finish(self, run: AsyncRun) -> (VirtualRunResult, S) {
        let result = VirtualRunResult {
            outcome: run.outcome,
            engine: self.core.into_engine(),
            fault_log: run.fault_log,
        };
        (result, self.source)
    }

    /// Starts timing an engine call — only when the measurement is used:
    /// a sampled `T_A` is drawn, and the clock is never read.
    fn stopwatch(&self) -> Option<Instant> {
        self.measured.then(Instant::now)
    }
}

/// The one seed split of a virtual run: engine seed, then delays (a measured `T_A` draws 0).
fn seeded_timing(config: &VirtualConfig) -> (u64, SampledTiming) {
    let mut split = SplitMix64::new(config.seed);
    let engine_seed = split.derive_seed("virtual-engine");
    let t_a = match config.t_a {
        TaMode::Sampled(d) => d,
        TaMode::Measured => Dist::Constant(0.0),
    };
    let (t_f, t_c, rng) = (config.t_f, config.t_c, split.derive("virtual-delays"));
    let timing = SampledTiming::new(TimingModel { t_f, t_c, t_a }, rng, config.workers());
    (engine_seed, timing)
}

/// Wall-clock seconds since [`BorgHooks::stopwatch`] started, if it did.
fn seconds_since(stopwatch: Option<Instant>) -> Option<f64> {
    stopwatch.map(|start| start.elapsed().as_secs_f64())
}

impl<S: ObjectiveSource, F: FnMut(f64, &BorgEngine)> MasterSlaveHooks for BorgHooks<S, F> {
    fn produce(&mut self, worker: usize, eval_id: u64, now: f64) -> f64 {
        let stopwatch = self.stopwatch();
        let variables = self.core.produce(eval_id, now);
        let real = seconds_since(stopwatch);
        self.source.send(worker, eval_id, variables, now);
        real.unwrap_or_else(|| self.timing.produce(worker, eval_id, now))
    }

    fn reissue(&mut self, worker: usize, eval_id: u64, now: f64) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "the protocol engine only reissues outstanding evaluations; a missing \
                      entry means the simulation itself is corrupted"
        )]
        let variables = self
            .core
            .resend(eval_id, now)
            .expect("reissue without a pending candidate");
        self.source.send(worker, eval_id, variables, now);
        0.0
    }

    fn evaluation_time(&mut self, worker: usize, eval_id: u64) -> f64 {
        self.timing.evaluation_time(worker, eval_id)
    }

    fn consume(&mut self, worker: usize, eval_id: u64, now: f64) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "each evaluation id is consumed exactly once, after its produce \
                      (duplicates are suppressed upstream); a missing entry is corruption"
        )]
        let variables = self
            .core
            .variables(eval_id)
            .expect("consume without a pending result");
        self.source.receive(
            worker,
            eval_id,
            variables,
            now,
            &mut self.objs_buf,
            &mut self.cons_buf,
        );
        let stopwatch = self.stopwatch();
        self.core.consume(eval_id, &self.objs_buf, &self.cons_buf);
        let real = seconds_since(stopwatch);
        (self.observer)(now, self.core.engine());
        real.unwrap_or_else(|| self.timing.consume(worker, eval_id, now))
    }

    fn comm_time(&mut self) -> f64 {
        self.timing.comm_time()
    }

    fn abandon(&mut self, eval_id: u64) {
        self.core.abandon(eval_id);
    }
}

/// Runs the fault-free asynchronous master-slave Borg MOEA in virtual
/// time: a quiet plan under [`EngineConfig::fault_free_async`].
///
/// `observer` fires after every consumed evaluation with the current
/// virtual time and engine state (use it for hypervolume trajectories).
pub fn run_virtual_async<P, F, R>(
    problem: &P,
    borg: BorgConfig,
    config: &VirtualConfig,
    rec: &R,
    observer: F,
) -> VirtualRunResult
where
    P: Problem + ?Sized,
    F: FnMut(f64, &BorgEngine),
    R: Recorder + ?Sized,
{
    let workers = config.workers();
    let quiet = FaultPlan::new(FaultConfig::default(), workers, config.max_nfe, 0);
    let engine = EngineConfig::fault_free_async(workers, config.max_nfe);
    let mut hooks = BorgHooks::new(problem, problem, config, borg, observer);
    let run = run_async_with(&mut hooks, engine, &quiet, rec);
    hooks.finish(run).0
}

/// [`run_virtual_async`]'s outcome and spans under a sampled `T_A`, bit for bit, without the search.
pub fn sampled_schedule<R: Recorder + ?Sized>(config: &VirtualConfig, rec: &R) -> RunOutcome {
    let (_, mut timing) = seeded_timing(config);
    borg_models::queueing::run_async(&mut timing, config.workers(), config.max_nfe, rec)
}

/// A fault-injected asynchronous virtual-time run in full: what
/// [`run_virtual_async`] fixes (no faults, no deadlines) made explicit.
#[derive(Debug, Clone, Copy)]
pub struct FaultyRun<'a> {
    /// Topology, budget, timing and seed.
    pub config: &'a VirtualConfig,
    /// Fault rates the [`FaultPlan`] is drawn from.
    pub faults: &'a FaultConfig,
}

impl<'a> FaultyRun<'a> {
    /// `config` under `faults`.
    pub fn new(config: &'a VirtualConfig, faults: &'a FaultConfig) -> Self {
        Self { config, faults }
    }

    /// The [`FaultPlan`] this run uses (exposed so replay checks can
    /// inspect the plan).
    pub fn plan(&self) -> FaultPlan {
        let plan_seed = SplitMix64::new(self.config.seed).derive_seed("fault-plan");
        FaultPlan::new(
            self.faults.clone(),
            self.config.workers(),
            self.config.max_nfe,
            plan_seed,
        )
    }

    /// The fault-tolerant protocol this run's master follows: deadlines at
    /// `k · E[T_F]` with `k = 4` (see [`RecoveryPolicy::from_expected_eval_time`]).
    pub fn engine_config(&self) -> EngineConfig {
        let policy = RecoveryPolicy::from_expected_eval_time(self.config.t_f.mean(), 4.0);
        EngineConfig::fault_tolerant_async(self.config.workers(), self.config.max_nfe, policy)
    }
}

/// Runs the asynchronous master-slave Borg MOEA in virtual time under
/// fault injection.
///
/// The master survives worker crashes and message drop/duplication per
/// `run.faults`: timed-out evaluations are reissued to live workers, dead
/// workers are quarantined, duplicate results are suppressed by
/// evaluation id. The full
/// ledger is returned in [`VirtualRunResult::fault_log`]. Every engine
/// event and command reaches `rec` as a flight record; the differential
/// equivalence tests compare those records against the performance-model
/// adapter's under identical timing to prove both executors run the same
/// protocol.
pub fn run_virtual_async_with<P, F, R>(
    problem: &P,
    borg: BorgConfig,
    run: &FaultyRun<'_>,
    rec: &R,
    observer: F,
) -> VirtualRunResult
where
    P: Problem + ?Sized,
    F: FnMut(f64, &BorgEngine),
    R: Recorder + ?Sized,
{
    let mut hooks = BorgHooks::new(problem, problem, run.config, borg, observer);
    let outcome = run_async_with(&mut hooks, run.engine_config(), &run.plan(), rec);
    hooks.finish(outcome).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_models::analytical::{async_parallel_time, relative_error, TimingParams};
    use borg_models::distfit::{SampleLog, WithSampleLog};
    use borg_models::perfsim::{simulate_async, simulate_sync, PerfSimConfig};
    use borg_models::queueing::{run_async, run_sync};
    use borg_obs::{Activity, InMemoryRecorder, NoopRecorder};
    use borg_problems::dtlz::{Dtlz, DtlzVariant};

    fn borg_cfg() -> BorgConfig {
        BorgConfig::new(5, 0.06)
    }

    /// `T_F` draws a run handed `rec` (one `Evaluation` span each), and its
    /// master holds (one `Algorithm` span each, a sampled `T_A`'s charges).
    fn tf_ta_counts(rec: &InMemoryRecorder) -> (u64, u64) {
        let snapshot = rec.snapshot();
        let count = |name: &str| snapshot.histograms[name].count();
        (count("t_f_seconds"), count("t_a_seconds"))
    }

    fn sampled_config(p: u32, nfe: u64, tf: f64, ta: f64) -> VirtualConfig {
        VirtualConfig {
            processors: p,
            max_nfe: nfe,
            t_f: Dist::Constant(tf),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Sampled(Dist::Constant(ta)),
            seed: 99,
        }
    }

    #[test]
    fn async_run_completes_and_converges() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(16, 5_000, 0.01, 0.000_03);
        let mut count = 0u64;
        let rec = InMemoryRecorder::metrics_only();
        let result = run_virtual_async(&problem, borg_cfg(), &cfg, &rec, |_, _| {
            count += 1;
        });
        assert_eq!(result.outcome.completed, 5_000);
        assert_eq!(count, 5_000);
        assert_eq!(result.engine.nfe(), 5_000);
        assert!(result.engine.archive().len() > 10);
        result.engine.archive().check_invariants().unwrap();
        // T_A: one per interaction + seeding; T_F: one per dispatched work.
        assert_eq!(tf_ta_counts(&rec), (5_000 + 14, 15 + 5_000));
    }

    #[test]
    fn timing_logs_count_what_each_executor_claims() {
        let problem = Dtlz::dtlz2_5();
        let (p, n) = (9u32, 1_500u64);
        for t_a in [TaMode::Sampled(Dist::Constant(0.000_03)), TaMode::Measured] {
            let cfg = VirtualConfig {
                t_a,
                ..sampled_config(p, n, 0.001, 0.0)
            };
            let eager = InMemoryRecorder::metrics_only();
            let run = run_virtual_async(&problem, borg_cfg(), &cfg, &eager, |_, _| {});
            let counts = (n + u64::from(p - 2), u64::from(p - 1) + n);
            assert_eq!(tf_ta_counts(&eager), counts, "{t_a:?}");
            let budgeted = InMemoryRecorder::metrics_only();
            let quiet = FaultConfig::default();
            let faulty = FaultyRun::new(&cfg, &quiet);
            run_virtual_async_with(&problem, borg_cfg(), &faulty, &budgeted, |_, _| {});
            assert_eq!(tf_ta_counts(&budgeted).0, n, "{t_a:?}");
            assert_eq!(run.engine.nfe(), n, "{t_a:?}");
        }
    }

    /// `(count, sum bits)` of a log and of a histogram.
    fn log_bits(log: &SampleLog) -> (u64, u64) {
        (log.count() as u64, log.sum().to_bits())
    }

    fn hist_bits(rec: &InMemoryRecorder, name: &str) -> (u64, u64) {
        let hist = &rec.snapshot().histograms[name];
        (hist.count(), hist.sum().to_bits())
    }

    #[test]
    fn sample_logs_agree_with_the_span_histograms() {
        // Measured virtual `T_A`: one per master hold, `(P − 1) + N`.
        let problem = Dtlz::dtlz2_5();
        let (p, n) = (9u32, 1_500u64);
        let cfg = VirtualConfig {
            t_a: TaMode::Measured,
            ..sampled_config(p, n, 0.001, 0.0)
        };
        let rec = InMemoryRecorder::metrics_only();
        let ta = WithSampleLog::new(&rec, Activity::Algorithm);
        run_virtual_async(&problem, borg_cfg(), &cfg, &ta, |_, _| {});
        let ta = ta.into_log();
        assert_eq!(ta.count() as u64, u64::from(p - 1) + n);
        assert_eq!(ta.retained().len(), ta.count(), "nothing decimated");
        assert_eq!(log_bits(&ta), hist_bits(&rec, "t_a_seconds"));

        // Threaded, fault-free: one `T_A` per handled result and one `T_F`
        // per finished evaluation, `N` each, recorded by three threads.
        let threaded = crate::threads::ThreadedConfig::new(2, 500, None, 4);
        let rec = InMemoryRecorder::metrics_only();
        let ta = WithSampleLog::new(&rec, Activity::Algorithm);
        let tf = WithSampleLog::new(&ta, Activity::Evaluation);
        let borg = BorgConfig::new(2, 0.01);
        let two = Dtlz::new(DtlzVariant::Dtlz2, 2);
        crate::threads::run_threaded_observed(&two, borg, &threaded, &tf).expect("run");
        let (tf, ta) = (tf.into_log(), ta.into_log());
        assert_eq!((ta.count(), tf.count()), (500, 500));
        assert_eq!(log_bits(&ta), hist_bits(&rec, "t_a_seconds"));
        assert_eq!(log_bits(&tf), hist_bits(&rec, "t_f_seconds"));
    }

    #[test]
    fn sampled_times_match_analytical_model_below_saturation() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(16, 5_000, 0.01, 0.000_03);
        let result = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let t = TimingParams::new(0.01, 0.000_006, 0.000_03);
        let eq2 = async_parallel_time(5_000, 16, t);
        assert!(
            relative_error(result.outcome.elapsed, eq2) < 0.01,
            "virtual {} vs Eq.2 {}",
            result.outcome.elapsed,
            eq2
        );
    }

    #[test]
    fn virtual_async_is_deterministic_with_sampled_ta() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(8, 2_000, 0.001, 0.000_03);
        let a = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let b = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        assert_eq!(a.outcome.elapsed, b.outcome.elapsed);
        assert_eq!(
            a.engine.archive().objective_vectors(),
            b.engine.archive().objective_vectors()
        );
    }

    #[test]
    fn measured_ta_grows_with_archive_activity() {
        // With TaMode::Measured the early interactions (tiny archive) must
        // be cheaper on average than late ones (big archive + adaptation).
        let problem = Dtlz::dtlz2_5();
        let cfg = VirtualConfig {
            processors: 8,
            max_nfe: 6_000,
            t_f: Dist::Constant(0.001),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Measured,
            seed: 5,
        };
        let rec = WithSampleLog::new(&NoopRecorder, Activity::Algorithm);
        run_virtual_async(&problem, borg_cfg(), &cfg, &rec, |_, _| {});
        let log = rec.into_log();
        let samples = log.retained();
        let n = samples.len();
        let early: f64 = samples[..n / 4].iter().sum::<f64>() / (n / 4) as f64;
        let late: f64 = samples[3 * n / 4..].iter().sum::<f64>() / (n - 3 * n / 4) as f64;
        assert!(early > 0.0 && late > 0.0);
        // Not asserting a strict ordering (wall clock is noisy) but the
        // samples must be in a sane microsecond-ish range.
        assert!(samples.iter().all(|&t| t < 0.1));
    }

    /// Every float of `o` as bits, then `completed` and `wasted_nfe`.
    fn outcome_bits(o: &RunOutcome) -> [u64; 7] {
        [
            o.elapsed.to_bits(),
            o.master_busy.to_bits(),
            o.master_utilization.to_bits(),
            o.mean_wait.to_bits(),
            o.max_wait.to_bits(),
            o.completed,
            o.wasted_nfe,
        ]
    }

    fn archive_bits(engine: &BorgEngine) -> Vec<u64> {
        let rows = engine.archive().objective_rows();
        rows.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Seeded violation of schedule independence: `T_F` stretched by the
    /// candidate's first variable.
    struct CandidateTimed<S, F>(BorgHooks<S, F>);

    impl<S: ObjectiveSource, F: FnMut(f64, &BorgEngine)> MasterSlaveHooks for CandidateTimed<S, F> {
        fn produce(&mut self, worker: usize, eval_id: u64, now: f64) -> f64 {
            self.0.produce(worker, eval_id, now)
        }
        fn evaluation_time(&mut self, worker: usize, eval_id: u64) -> f64 {
            let x = self.0.core.variables(eval_id).map_or(0.0, |v| v[0]);
            self.0.evaluation_time(worker, eval_id) * (1.0 + x)
        }
        fn consume(&mut self, worker: usize, eval_id: u64, now: f64) -> f64 {
            self.0.consume(worker, eval_id, now)
        }
        fn comm_time(&mut self) -> f64 {
            self.0.comm_time()
        }
    }

    #[test]
    fn sampled_schedule_is_independent_of_the_search() {
        // Under a sampled `T_A` the executor is the simulation model with
        // the search riding along: two different searches share every
        // outcome bit, and so does `sampled_schedule`, which leaves it out.
        let two = Dtlz::new(DtlzVariant::Dtlz2, 2);
        let five = Dtlz::dtlz2_5();
        let searches: [(&dyn Problem, BorgConfig); 2] = [
            (&two, BorgConfig::new(2, 0.06)),
            (&five, BorgConfig::new(5, 0.1)),
        ];
        let t_as = [
            Dist::Constant(0.000_03),
            Dist::Gamma {
                shape: 4.0,
                scale: 0.000_007_5,
            },
            Dist::Exponential {
                rate: 1.0 / 0.000_03,
            },
        ];
        for p in [2, 16, 128] {
            for t_a in t_as {
                let cfg = VirtualConfig {
                    t_f: Dist::normal_cv(0.001, 0.1),
                    t_a: TaMode::Sampled(t_a),
                    ..sampled_config(p, 1_000, 0.0, 0.0)
                };
                let [a, b] = searches.each_ref().map(|(problem, borg)| {
                    let borg = borg.clone();
                    let run = run_virtual_async(*problem, borg, &cfg, &NoopRecorder, |_, _| {});
                    outcome_bits(&run.outcome)
                });
                assert_eq!(a, b, "P={p} {t_a:?}: the search moved the schedule");
                let model = outcome_bits(&sampled_schedule(&cfg, &NoopRecorder));
                assert_eq!(a, model, "P={p} {t_a:?}: executor and model differ");
            }
        }
        // A `T_F` that reads the candidate breaks the relation.
        let cfg = sampled_config(16, 1_000, 0.001, 0.000_03);
        let [a, b] = searches.map(|(problem, borg)| {
            let mut hooks = CandidateTimed(BorgHooks::new(problem, problem, &cfg, borg, |_, _| {}));
            outcome_bits(&run_async(
                &mut hooks,
                cfg.workers(),
                cfg.max_nfe,
                &NoopRecorder,
            ))
        });
        assert_ne!(a, b, "a candidate-dependent T_F went unseen");
    }

    /// The serial baseline: one worker and free messages.
    fn serial_config(n: u64, t_a: TaMode) -> VirtualConfig {
        VirtualConfig {
            t_c: Dist::Constant(0.0),
            t_a,
            ..sampled_config(2, n, 0.01, 0.0)
        }
    }

    #[test]
    fn serial_baseline_charges_tf_plus_ta() {
        // Eq. 1, plus the hold of the first production.
        let problem = Dtlz::dtlz2_5();
        let cfg = serial_config(3_000, TaMode::Sampled(Dist::Constant(0.000_05)));
        let result = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let expect = 3_000.0 * (0.01 + 0.000_05) + 0.000_05;
        let err = relative_error(result.outcome.elapsed, expect);
        assert!(err < 1e-9, "elapsed {} vs {expect}", result.outcome.elapsed);
        assert_eq!(result.engine.nfe(), 3_000);
    }

    #[test]
    fn virtual_serial_runs_the_same_search_as_run_serial() {
        // The Figure 3–4 baseline is serial Borg: at P = 2 the search is
        // `run_serial`'s at the executor's engine seed, bit for bit,
        // whatever charges `T_A`.
        let problem = Dtlz::dtlz2_5();
        let n = 3_000;
        let engine_seed = SplitMix64::new(99).derive_seed("virtual-engine");
        let serial = borg_core::algorithm::run_serial(&problem, borg_cfg(), engine_seed, n, |_| {});
        let gamma = Dist::Gamma {
            shape: 4.0,
            scale: 0.000_012_5,
        };
        for t_a in [
            TaMode::Sampled(Dist::Constant(0.000_05)),
            TaMode::Sampled(gamma),
            TaMode::Measured,
        ] {
            let cfg = serial_config(n, t_a);
            let virt = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
            assert_eq!(archive_bits(&virt.engine), archive_bits(&serial), "{t_a:?}");
            assert_eq!(virt.engine.stats().restarts, serial.stats().restarts);
        }
    }

    #[test]
    fn parallel_beats_serial_on_virtual_clock() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(16, 4_000, 0.01, 0.000_03);
        let serial = VirtualConfig {
            processors: 2,
            t_c: Dist::Constant(0.0),
            ..cfg.clone()
        };
        let par = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let ser = run_virtual_async(&problem, borg_cfg(), &serial, &NoopRecorder, |_, _| {});
        let speedup = ser.outcome.elapsed / par.outcome.elapsed;
        assert!(speedup > 10.0, "speedup = {speedup}");
    }

    /// `T_F` (Normal, CV 0.1), `T_C` (Constant) and `T_A` (Gamma), each
    /// times `s`. LogNormal is left out: it scales only through `μ + ln s`,
    /// which rounds.
    fn timing_times(s: f64) -> TimingModel {
        TimingModel {
            t_f: Dist::Normal {
                mean: 0.001 * s,
                sd: 0.000_1 * s,
            },
            t_c: Dist::Constant(0.000_006 * s),
            t_a: Dist::Gamma {
                shape: 4.0,
                scale: 0.000_007_5 * s,
            },
        }
    }

    fn virtual_times(p: u32, s: f64) -> VirtualConfig {
        let timing = timing_times(s);
        VirtualConfig {
            t_f: timing.t_f,
            t_c: timing.t_c,
            t_a: TaMode::Sampled(timing.t_a),
            ..sampled_config(p, 1_000, 0.0, 0.0)
        }
    }

    /// Whether `scaled` is `base` with every time multiplied by `s` (a
    /// power of two) and every count the same, bit for bit.
    fn scales_exactly(base: &RunOutcome, scaled: &RunOutcome, s: f64) -> bool {
        let times = |o: &RunOutcome| [o.elapsed, o.master_busy, o.mean_wait, o.max_wait];
        let base_times = times(base).map(|t| (t * s).to_bits());
        base_times == times(scaled).map(f64::to_bits)
            && base.master_utilization.to_bits() == scaled.master_utilization.to_bits()
            && (base.completed, base.wasted_nfe) == (scaled.completed, scaled.wasted_nfe)
    }

    /// As [`scales_exactly`], for each ledger entry and counter.
    fn ledger_scales_exactly(base: &FaultLog, scaled: &FaultLog, s: f64) -> bool {
        let at = |t: Option<f64>| t.map(f64::to_bits);
        let entries_scale = base.records.iter().zip(&scaled.records).all(|(a, b)| {
            (a.kind, a.worker, a.eval_id) == (b.kind, b.worker, b.eval_id)
                && (a.injected_at * s).to_bits() == b.injected_at.to_bits()
                && at(a.detected_at.map(|t| t * s)) == at(b.detected_at)
                && at(a.recovered_at.map(|t| t * s)) == at(b.recovered_at)
        });
        let counters = |l: &FaultLog| {
            let n = l.records.len() as u64;
            [
                n,
                l.reissues,
                l.duplicates_suppressed,
                l.wasted_nfe,
                l.deaths_detected,
            ]
        };
        entries_scale && counters(base) == counters(scaled)
    }

    /// Seeded violation of time-scale invariance: a 1 µs floor on every
    /// master hold.
    struct Floored<H>(H);

    impl<H: MasterSlaveHooks> MasterSlaveHooks for Floored<H> {
        fn produce(&mut self, worker: usize, eval_id: u64, now: f64) -> f64 {
            self.0.produce(worker, eval_id, now).max(0.000_001)
        }
        fn evaluation_time(&mut self, worker: usize, eval_id: u64) -> f64 {
            self.0.evaluation_time(worker, eval_id)
        }
        fn consume(&mut self, worker: usize, eval_id: u64, now: f64) -> f64 {
            self.0.consume(worker, eval_id, now).max(0.000_001)
        }
        fn comm_time(&mut self) -> f64 {
            self.0.comm_time()
        }
    }

    #[test]
    fn sampled_runs_are_time_scale_invariant() {
        // Eqs. 1–4 are homogeneous of degree one in time: scaling every
        // delay by 2^k scales every time by exactly 2^k and moves no
        // decision, on the executor, on `perfsim` and on `run_sync`.
        let problem = Dtlz::dtlz2_5();
        let virtual_run = |p: u32, s: f64, faults: Option<&FaultConfig>| {
            let cfg = virtual_times(p, s);
            match faults {
                None => run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {}),
                Some(faults) => {
                    let run = FaultyRun::new(&cfg, faults);
                    run_virtual_async_with(&problem, borg_cfg(), &run, &NoopRecorder, |_, _| {})
                }
            }
        };
        let model = |p: u32, s: f64| PerfSimConfig {
            processors: p,
            evaluations: 1_000,
            timing: timing_times(s),
            seed: 7,
        };
        let degraded = FaultConfig::degraded(0.25);
        for s in [2f64.powi(-10), 2f64.powi(3)] {
            for (p, faults) in [(2, None), (16, None), (128, None), (16, Some(&degraded))] {
                let (base, scaled) = (virtual_run(p, 1.0, faults), virtual_run(p, s, faults));
                assert!(
                    scales_exactly(&base.outcome, &scaled.outcome, s),
                    "virtual P={p} s={s} faults={faults:?}"
                );
                assert!(faults.is_none() || base.fault_log.injected() > 0);
                assert!(ledger_scales_exactly(&base.fault_log, &scaled.fault_log, s));
                assert_eq!(archive_bits(&base.engine), archive_bits(&scaled.engine));
            }
            for p in [2, 16, 128] {
                let (base, scaled) = (model(p, 1.0), model(p, s));
                let (a, b) = (simulate_async(&base), simulate_async(&scaled));
                assert!(
                    scales_exactly(&a.outcome, &b.outcome, s),
                    "perfsim P={p} s={s}"
                );
                let (a, b) = (
                    simulate_sync(&base, &NoopRecorder),
                    simulate_sync(&scaled, &NoopRecorder),
                );
                assert!(
                    scales_exactly(&a.outcome, &b.outcome, s),
                    "run_sync P={p} s={s}"
                );
            }
        }
        // A hold with an absolute floor breaks the relation on each path.
        let s = 2f64.powi(-10);
        let floored_virtual = |s: f64| {
            let cfg = virtual_times(16, s);
            let mut hooks = Floored(BorgHooks::new(
                &problem,
                &problem,
                &cfg,
                borg_cfg(),
                |_, _| {},
            ));
            run_async(&mut hooks, cfg.workers(), cfg.max_nfe, &NoopRecorder)
        };
        assert!(!scales_exactly(
            &floored_virtual(1.0),
            &floored_virtual(s),
            s
        ));
        let floored_model = |s: f64, sync: bool| {
            let rng = SplitMix64::new(7).derive("perfsim");
            let mut hooks = Floored(SampledTiming::new(timing_times(s), rng, 16));
            if sync {
                run_sync(&mut hooks, 15, 1_000, &NoopRecorder)
            } else {
                run_async(&mut hooks, 15, 1_000, &NoopRecorder)
            }
        };
        for sync in [false, true] {
            let (base, scaled) = (floored_model(1.0, sync), floored_model(s, sync));
            assert!(!scales_exactly(&base, &scaled, s), "sync={sync}");
        }
    }

    #[test]
    fn faulty_run_with_crashes_and_loss_completes_max_nfe() {
        // The acceptance scenario: crash rate 0.1, message loss 0.01,
        // fixed seed — the run must still complete its full budget.
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(16, 3_000, 0.01, 0.000_03);
        let faults = FaultConfig::degraded(0.1);
        let result = run_virtual_async_with(
            &problem,
            borg_cfg(),
            &FaultyRun::new(&cfg, &faults),
            &NoopRecorder,
            |_, _| {},
        );
        assert_eq!(result.outcome.completed, 3_000);
        assert_eq!(result.engine.nfe(), 3_000);
        assert!(result.fault_log.all_recovered());
        assert_eq!(result.outcome.wasted_nfe, result.fault_log.wasted_nfe);
        result.engine.archive().check_invariants().unwrap();
    }

    #[test]
    fn a_run_that_loses_every_result_ends_with_all_abandoned() {
        // Every result message is dropped (or nearly every one): each
        // evaluation times out, is reissued up to the cap and abandoned,
        // and its worker moves on, so the run drains with
        // completed + abandoned == N instead of stalling.
        use std::sync::mpsc::{self, RecvTimeoutError};
        use std::time::Duration;
        for drop_rate in [1.0, 0.999] {
            let (tx, rx) = mpsc::channel();
            let run = std::thread::spawn(move || {
                let cfg = sampled_config(3, 10, 0.01, 0.000_03);
                let faults = FaultConfig {
                    drop_rate,
                    ..FaultConfig::default()
                };
                let rec = InMemoryRecorder::metrics_only();
                let result = run_virtual_async_with(
                    &Dtlz::dtlz2_5(),
                    borg_cfg(),
                    &FaultyRun::new(&cfg, &faults),
                    &rec,
                    |_, _| {},
                );
                let abandoned = rec
                    .snapshot()
                    .counters
                    .get("engine.commands.abandon")
                    .copied()
                    .unwrap_or(0);
                let _ = tx.send((result.outcome.completed, abandoned));
            });
            let outcome = rx.recv_timeout(Duration::from_secs(30));
            assert!(
                !matches!(outcome, Err(RecvTimeoutError::Timeout)),
                "drop rate {drop_rate}: the run never ended"
            );
            run.join().expect("the run thread panicked");
            let (completed, abandoned) = outcome.expect("the run sent its counts");
            assert_eq!(completed + abandoned, 10, "drop rate {drop_rate}");
            if drop_rate == 1.0 {
                assert_eq!((completed, abandoned), (0, 10));
            }
        }
    }

    #[test]
    fn fault_plan_replay_is_bit_identical() {
        // Same seed ⇒ identical FaultLog and final archive, bit for bit.
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(12, 2_000, 0.008, 0.000_03);
        let faults = FaultConfig {
            crash_rate: 0.25,
            drop_rate: 0.02,
            duplicate_rate: 0.02,
        };
        let run = || {
            run_virtual_async_with(
                &problem,
                borg_cfg(),
                &FaultyRun::new(&cfg, &faults),
                &NoopRecorder,
                |_, _| {},
            )
        };
        let a = run();
        let b = run();
        assert!(a.fault_log.injected() > 0, "scenario should inject faults");
        assert_eq!(a.fault_log, b.fault_log);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.engine.archive().objective_vectors(),
            b.engine.archive().objective_vectors()
        );
    }

    #[test]
    fn kill_half_the_workers_mid_run_still_completes() {
        // Seeded crashes on half the pool, for good: the surviving workers
        // absorb the reissues and finish the budget.
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(9, 2_000, 0.01, 0.000_03);
        let faults = FaultConfig {
            crash_rate: 0.6,
            ..FaultConfig::default()
        };
        let doomed = FaultyRun::new(&cfg, &faults).plan().doomed_workers();
        assert_eq!(doomed, 4, "this seed dooms four of the eight workers");
        let result = run_virtual_async_with(
            &problem,
            borg_cfg(),
            &FaultyRun::new(&cfg, &faults),
            &NoopRecorder,
            |_, _| {},
        );
        assert_eq!(result.outcome.completed, 2_000);
        assert_eq!(result.engine.nfe(), 2_000);
        assert_eq!(
            result
                .fault_log
                .injected_of(borg_desim::fault::FaultKind::Crash),
            doomed
        );
        assert!(result.fault_log.all_recovered());
        assert!(result.fault_log.deaths_detected >= doomed as u64);
    }

    #[test]
    fn degraded_pool_completes_budget_with_every_fault_recovered() {
        // `FaultConfig::degraded` (crash rate f, 1% message loss) across pool
        // sizes: every cell finishes its budget and recovers what it injects.
        let problem = Dtlz::dtlz2_5();
        for f in [0.0, 0.1] {
            for p in [8, 64] {
                let cfg = sampled_config(p, 2_000, 0.001, 0.000_03);
                let faults = if f == 0.0 {
                    FaultConfig::default()
                } else {
                    FaultConfig::degraded(f)
                };
                let result = run_virtual_async_with(
                    &problem,
                    borg_cfg(),
                    &FaultyRun::new(&cfg, &faults),
                    &NoopRecorder,
                    |_, _| {},
                );
                assert_eq!(result.outcome.completed, 2_000, "P={p} f={f}");
                assert!(result.outcome.elapsed > 0.0);
                if f == 0.0 {
                    assert_eq!(result.fault_log.injected(), 0, "P={p}");
                    assert_eq!(result.fault_log.reissues, 0, "P={p}");
                } else {
                    assert!(result.fault_log.injected() > 0, "P={p} injected nothing");
                    assert!(result.fault_log.all_recovered(), "P={p} f={f}");
                }
            }
        }
    }

    #[test]
    fn crashes_cost_elapsed_time_not_evaluations() {
        // Losing a quarter of the pool: the same-seed fault-free run finishes
        // the same budget sooner.
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(16, 4_000, 0.001, 0.000_03);
        let healthy = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let faulty = run_virtual_async_with(
            &problem,
            borg_cfg(),
            &FaultyRun::new(&cfg, &FaultConfig::degraded(0.25)),
            &NoopRecorder,
            |_, _| {},
        );
        assert_eq!(faulty.outcome.completed, healthy.outcome.completed);
        assert!(
            faulty.outcome.elapsed > healthy.outcome.elapsed,
            "crashes should cost time: {} vs {}",
            faulty.outcome.elapsed,
            healthy.outcome.elapsed
        );
    }

    #[test]
    fn quiet_faulty_run_matches_fault_free_elapsed_closely() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(8, 2_000, 0.01, 0.000_03);
        let base = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let quiet = run_virtual_async_with(
            &problem,
            borg_cfg(),
            &FaultyRun::new(&cfg, &FaultConfig::default()),
            &NoopRecorder,
            |_, _| {},
        );
        assert_eq!(quiet.fault_log.injected(), 0);
        assert_eq!(quiet.outcome.wasted_nfe, 0);
        assert!(
            relative_error(quiet.outcome.elapsed, base.outcome.elapsed) < 0.01,
            "quiet {} vs base {}",
            quiet.outcome.elapsed,
            base.outcome.elapsed
        );
    }

    #[test]
    fn observer_sees_monotone_time_and_nfe() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(4, 1_000, 0.005, 0.000_02);
        let mut last_t = -1.0;
        let mut last_nfe = 0;
        run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |t, e| {
            assert!(t >= last_t, "time went backwards");
            assert!(e.nfe() > last_nfe || last_nfe == 0);
            last_t = t;
            last_nfe = e.nfe();
        });
        assert_eq!(last_nfe, 1_000);
    }
}
