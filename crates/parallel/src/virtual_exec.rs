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
use borg_models::distfit::SampleLog;
use borg_models::queueing::{
    run_async_with, AsyncRun, MasterSlaveHooks, RecoveryPolicy, RunOutcome,
};
use borg_obs::Recorder;
use borg_protocol::EngineConfig;
use rand::rngs::StdRng;
use std::time::Instant;

/// How the executor charges master algorithm time `T_A`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaMode {
    /// Sample from a distribution (like the performance model).
    Sampled(Dist),
    /// Measure the real wall-clock time of the engine's produce/consume
    /// calls and use it as simulated seconds (the "experimental" mode).
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
    /// The paper's experimental configuration: `T_F ~ Normal(t_f, 0.1 t_f)`,
    /// `T_C = 6 µs` constant, measured `T_A`.
    pub fn paper(processors: u32, max_nfe: u64, t_f_mean: f64, seed: u64) -> Self {
        Self {
            processors,
            max_nfe,
            t_f: Dist::normal_cv(t_f_mean, 0.1),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Measured,
            seed,
        }
    }

    /// The worker pool `P − 1`.
    fn workers(&self) -> usize {
        assert!(
            self.processors >= 2,
            "need a master and at least one worker"
        );
        (self.processors - 1) as usize
    }
}

/// Result of a virtual-time parallel run.
#[derive(Debug)]
pub struct VirtualRunResult {
    /// Queueing outcome (elapsed virtual time, utilization, waits).
    pub outcome: RunOutcome,
    /// Final engine state (archive, statistics).
    pub engine: BorgEngine,
    /// Measured or sampled `T_A` (seconds). `Sampled` mode logs one per
    /// initial production (`P − 1`) and one per consumed result.
    /// `Measured` mode logs one per produce or consume, except that a
    /// produce directly after a consume (the same master hold) is added to
    /// that consume's sample. Either way a fault-free asynchronous run logs
    /// `(P − 1) + N`, and [`run_virtual_serial`] logs one per evaluation,
    /// `N`.
    pub ta: SampleLog,
    /// Sampled `T_F` (seconds), one per evaluation started.
    /// [`run_virtual_async`] logs `N + P − 2`: every consume but the last
    /// refills its worker, so `P − 2` evaluations are still out when the
    /// run ends.
    /// [`run_virtual_async_with`] issues no evaluation past the budget and
    /// logs `N` on a quiet plan, plus one per reissue under faults.
    /// [`run_virtual_serial`] logs `N`.
    pub tf: SampleLog,
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
/// real algorithm on the DES clock. Work items are keyed by evaluation id,
/// so a reissued evaluation re-sends the same candidate and the
/// first-arriving copy wins.
pub struct BorgHooks<S, F> {
    core: MasterCore,
    source: S,
    objs_buf: Vec<f64>,
    cons_buf: Vec<f64>,
    t_f: Dist,
    t_c: Dist,
    t_a: TaMode,
    rng: StdRng,
    ta: SampleLog,
    tf: SampleLog,
    observer: F,
    /// In `Sampled` mode the per-interaction `T_A` is charged once, on
    /// consume (matching the paper's `hold(T_C + T_A + T_C)` and the
    /// performance model); only the first `width` productions — the
    /// initial seeding of the `P − 1` workers, evaluation ids `0..width` —
    /// draw their own sample.
    /// `Measured` mode charges each call's real cost (reissues are free:
    /// the candidate already exists).
    width: u64,
    /// `Measured` mode: the last consume's sample, held back from `ta` so
    /// the immediately-following produce (same master hold) can add to it
    /// and `ta` logs *per-interaction* sums — the quantity the paper's
    /// models call `T_A`. Logged at the next sample or at the end of the
    /// run.
    open_ta: Option<f64>,
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
        let mut split = SplitMix64::new(config.seed);
        let engine_seed = split.derive_seed("virtual-engine");
        let rng = split.derive("virtual-delays");
        Self {
            core: MasterCore::new(problem, borg, engine_seed),
            source,
            objs_buf: vec![0.0; problem.num_objectives()],
            cons_buf: vec![0.0; problem.num_constraints()],
            t_f: config.t_f,
            t_c: config.t_c,
            t_a: config.t_a,
            rng,
            ta: SampleLog::new(),
            tf: SampleLog::new(),
            observer,
            // The serial loop never produces through the hooks, so a
            // one-processor config needs no worker here.
            width: u64::from(config.processors.saturating_sub(1)),
            open_ta: None,
        }
    }

    /// Packages the finished `run` with the engine and samples these
    /// hooks accumulated, handing the objective source back.
    pub fn finish(mut self, run: AsyncRun) -> (VirtualRunResult, S) {
        if let Some(t) = self.open_ta.take() {
            self.ta.push(t);
        }
        let result = VirtualRunResult {
            outcome: run.outcome,
            engine: self.core.into_engine(),
            ta: self.ta,
            tf: self.tf,
            fault_log: run.fault_log,
        };
        (result, self.source)
    }

    /// Starts timing an engine call — only when the measurement is used:
    /// `Sampled` mode charges a drawn `T_A` and never reads the clock.
    fn stopwatch(&self) -> Option<Instant> {
        matches!(self.t_a, TaMode::Measured).then(Instant::now)
    }

    fn draw_ta(&mut self, d: Dist) -> f64 {
        let t = d.sample(&mut self.rng);
        self.ta.push(t);
        t
    }
}

/// Wall-clock seconds since [`BorgHooks::stopwatch`] started (0 when it
/// did not).
fn seconds_since(stopwatch: Option<Instant>) -> f64 {
    stopwatch.map_or(0.0, |start| start.elapsed().as_secs_f64())
}

impl<S: ObjectiveSource, F: FnMut(f64, &BorgEngine)> MasterSlaveHooks for BorgHooks<S, F> {
    fn produce(&mut self, worker: usize, eval_id: u64, now: f64) -> f64 {
        let stopwatch = self.stopwatch();
        let variables = self.core.produce(eval_id, now);
        let real = seconds_since(stopwatch);
        self.source.send(worker, eval_id, variables, now);
        match self.t_a {
            TaMode::Measured => {
                // Same master hold as a preceding consume: fold into that
                // interaction's sample.
                let sample = self.open_ta.take().map_or(real, |open| open + real);
                self.ta.push(sample);
                real
            }
            // Sampled T_A is per *interaction* and charged on consume;
            // only the initial seeding productions draw their own sample.
            TaMode::Sampled(d) if eval_id < self.width => self.draw_ta(d),
            TaMode::Sampled(_) => 0.0,
        }
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

    fn evaluation_time(&mut self, _worker: usize, _eval_id: u64) -> f64 {
        let t = self.t_f.sample(&mut self.rng);
        self.tf.push(t);
        t
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
        match self.t_a {
            TaMode::Measured => {
                if let Some(t) = self.open_ta.replace(real) {
                    self.ta.push(t);
                }
                real
            }
            TaMode::Sampled(d) => self.draw_ta(d),
        }
    }

    fn comm_time(&mut self) -> f64 {
        self.t_c.sample(&mut self.rng)
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

/// Runs the Borg MOEA *serially* while charging the same virtual clock
/// (`T_S = Σ (T_F + T_A)`), providing the baseline for hypervolume-based
/// speedup (`S_P^h`, §VI-A).
pub fn run_virtual_serial<P, F>(
    problem: &P,
    borg: BorgConfig,
    config: &VirtualConfig,
    observer: F,
) -> VirtualRunResult
where
    P: Problem + ?Sized,
    F: FnMut(f64, &BorgEngine),
{
    // The hooks' seeds, draws, logs and buffers, driven one candidate at a
    // time: `T_A` is one sample per evaluation, produce and consume.
    let mut h = BorgHooks::new(problem, problem, config, borg, observer);
    let mut clock = 0.0f64;
    while h.core.engine().nfe() < config.max_nfe {
        // One candidate out at a time: its id is the count consumed.
        let eval_id = h.core.engine().nfe();
        let stopwatch = h.stopwatch();
        let variables = h.core.produce(eval_id, clock);
        let produce_real = seconds_since(stopwatch);
        problem.evaluate(variables, &mut h.objs_buf, &mut h.cons_buf);
        clock += h.evaluation_time(0, eval_id);
        let stopwatch = h.stopwatch();
        h.core.consume(eval_id, &h.objs_buf, &h.cons_buf);
        let t_a = match h.t_a {
            TaMode::Measured => produce_real + seconds_since(stopwatch),
            TaMode::Sampled(d) => d.sample(&mut h.rng),
        };
        h.ta.push(t_a);
        clock += t_a;
        (h.observer)(clock, h.core.engine());
    }
    let outcome = RunOutcome {
        elapsed: clock,
        completed: h.core.engine().nfe(),
        master_busy: clock,
        master_utilization: 1.0,
        mean_wait: 0.0,
        max_wait: 0.0,
        wasted_nfe: 0,
    };
    let run = AsyncRun {
        outcome,
        fault_log: FaultLog::default(),
    };
    h.finish(run).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_models::analytical::{async_parallel_time, relative_error, TimingParams};
    use borg_obs::NoopRecorder;
    use borg_problems::dtlz::Dtlz;

    fn borg_cfg() -> BorgConfig {
        BorgConfig::new(5, 0.06)
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
        let result = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {
            count += 1;
        });
        assert_eq!(result.outcome.completed, 5_000);
        assert_eq!(count, 5_000);
        assert_eq!(result.engine.nfe(), 5_000);
        assert!(result.engine.archive().len() > 10);
        result.engine.archive().check_invariants().unwrap();
        // ta: one per interaction + seeding; tf: one per dispatched work.
        assert_eq!(result.ta.count(), 15 + 5_000);
        assert_eq!(result.tf.count(), 5_000 + 14);
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
            let run = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
            assert_eq!(run.ta.count() as u64, u64::from(p - 1) + n, "{t_a:?}");
            assert_eq!(run.tf.count() as u64, n + u64::from(p - 2), "{t_a:?}");
            assert_eq!(run.ta.retained().len(), run.ta.count(), "nothing decimated");
            let serial = run_virtual_serial(&problem, borg_cfg(), &cfg, |_, _| {});
            assert_eq!(serial.ta.count() as u64, n, "{t_a:?}");
            assert_eq!(serial.tf.count() as u64, n, "{t_a:?}");
        }
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
        let result = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let samples = result.ta.retained();
        let n = samples.len();
        let early: f64 = samples[..n / 4].iter().sum::<f64>() / (n / 4) as f64;
        let late: f64 = samples[3 * n / 4..].iter().sum::<f64>() / (n - 3 * n / 4) as f64;
        assert!(early > 0.0 && late > 0.0);
        // Not asserting a strict ordering (wall clock is noisy) but the
        // samples must be in a sane microsecond-ish range.
        assert!(samples.iter().all(|&t| t < 0.1));
    }

    #[test]
    fn serial_baseline_charges_tf_plus_ta() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(2, 3_000, 0.01, 0.000_05);
        let result = run_virtual_serial(&problem, borg_cfg(), &cfg, |_, _| {});
        let expect = 3_000.0 * (0.01 + 0.000_05);
        assert!(relative_error(result.outcome.elapsed, expect) < 1e-9);
        assert_eq!(result.engine.nfe(), 3_000);
    }

    #[test]
    fn virtual_serial_runs_the_same_search_as_run_serial() {
        // The Figure 3–4 baseline is serial Borg: the virtual clock only
        // draws delays from its own stream, never from the engine's.
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(2, 3_000, 0.01, 0.000_05);
        let virt = run_virtual_serial(&problem, borg_cfg(), &cfg, |_, _| {});
        let seed = SplitMix64::new(cfg.seed).derive_seed("virtual-engine");
        let serial = borg_core::algorithm::run_serial(&problem, borg_cfg(), seed, 3_000, |_| {});
        let bits = |e: &BorgEngine| -> Vec<u64> {
            let rows = e.archive().objective_rows();
            rows.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&virt.engine), bits(&serial));
        assert_eq!(virt.engine.stats().restarts, serial.stats().restarts);
    }

    #[test]
    fn parallel_beats_serial_on_virtual_clock() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(16, 4_000, 0.01, 0.000_03);
        let par = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let ser = run_virtual_serial(&problem, borg_cfg(), &cfg, |_, _| {});
        let speedup = ser.outcome.elapsed / par.outcome.elapsed;
        assert!(speedup > 10.0, "speedup = {speedup}");
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
        use borg_obs::InMemoryRecorder;
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
