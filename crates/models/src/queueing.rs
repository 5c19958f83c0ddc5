//! The master-slave queueing simulation shared by the performance model
//! (this crate) and the full-algorithm virtual-time executors
//! (`borg-parallel`).
//!
//! The simulation reproduces the event structure of the paper's SimPy
//! model (§IV-B): workers evaluate, then *request* the master; the master
//! is an exclusive FIFO resource *held* for `T_C + T_A + T_C` per
//! interaction (receive, process + produce, send), after which the worker
//! is *activated* again. What happens inside `T_A`/`T_F` is delegated to a
//! [`MasterSlaveHooks`] implementation: [`SampledTiming`] draws the
//! durations (the performance model runs it bare), and the executors in
//! `borg-parallel` run the real Borg MOEA beside the same draws.
//!
//! The *protocol* itself — dispatch bookkeeping, deadline reissue,
//! duplicate suppression, liveness beliefs — is not implemented here: it
//! lives in the executor-agnostic [`borg_protocol::MasterEngine`]. This
//! module contributes the asynchronous DES-time adapter: a [`Transport`]
//! that maps the engine's decisions onto an [`EventQueue`], charging
//! simulated master/worker time through the hooks and consulting the
//! [`FaultPlan`] for injected fates. A fault-free run is that adapter under
//! a quiet plan and [`EngineConfig::fault_free_async`] — there is no
//! second code path. The generational synchronous topology ([`run_sync`])
//! loses, retries and duplicates nothing, so it is one plain event loop
//! over the same queue and hooks, with no engine.

use crate::perfsim::TimingModel;
use borg_desim::fault::{DispatchFate, FaultConfig, FaultKind, FaultLog, FaultPlan, MessageFate};
use borg_desim::queue::EventQueue;
use borg_obs::{Activity, Actor, Recorder};
use borg_protocol::{Clock, Event, MasterEngine, PoolDiscipline, Transport};
use rand::rngs::StdRng;

pub use borg_protocol::{EngineConfig, RecoveryPolicy};

/// Problem-specific behaviour plugged into the queueing engine.
///
/// Work items are identified by a stable `eval_id` (issued consecutively
/// from 0), so the master can reissue a lost evaluation to a different
/// worker and suppress duplicate results. The engine calls, per
/// interaction: `consume` (master absorbs a result), `produce` (master
/// creates the worker's next work item), `evaluation_time` (how long the
/// new evaluation takes) and `comm_time` for each one-way message. Each
/// returns the simulated duration of that step.
pub trait MasterSlaveHooks {
    /// Master-side time to produce the *fresh* work item `eval_id` for
    /// `worker`, starting at simulated time `now`.
    fn produce(&mut self, worker: usize, eval_id: u64, now: f64) -> f64;

    /// Master-side time to resend existing work item `eval_id` to
    /// `worker` — the candidate must not change, only the bookkeeping
    /// cost may differ. Defaults to free: the candidate already exists,
    /// only the message must be rebuilt (charged separately as
    /// `comm_time`).
    fn reissue(&mut self, _worker: usize, _eval_id: u64, _now: f64) -> f64 {
        0.0
    }

    /// Worker-side time to evaluate work item `eval_id` on `worker`.
    fn evaluation_time(&mut self, worker: usize, eval_id: u64) -> f64;

    /// Master-side time to process the result of `eval_id` returned by
    /// `worker`, starting at `now`.
    fn consume(&mut self, worker: usize, eval_id: u64, now: f64) -> f64;

    /// One-way master↔worker message time.
    fn comm_time(&mut self) -> f64;

    /// `eval_id` exhausted its reissue budget: it will never be consumed,
    /// so whatever was kept for it can go.
    fn abandon(&mut self, _eval_id: u64) {}
}

/// The simulation model's delay draws (§IV-B), the one place `T_F`, `T_C`
/// and a sampled `T_A` are drawn: `T_A` for each of the first `width`
/// productions (the initial seeding, evaluation ids `0..width`), `T_F` per
/// evaluation, `T_C` per message and `T_A` per consume, mirroring
/// `hold(T_C + T_A + T_C)` in the paper's snippet. `perfsim` runs it bare;
/// the virtual executor runs the search beside it.
pub struct SampledTiming {
    timing: TimingModel,
    rng: StdRng,
    width: u64,
}

impl SampledTiming {
    /// Draws from `timing` on `rng` (already derived for its run), seeding
    /// `width` workers.
    pub fn new(timing: TimingModel, rng: StdRng, width: usize) -> Self {
        Self {
            timing,
            rng,
            width: width as u64,
        }
    }
}

// `#[inline]` on the per-call draws: the event loops that make them are
// generic, so they are compiled in the crate that runs them.
impl MasterSlaveHooks for SampledTiming {
    #[inline]
    fn produce(&mut self, _worker: usize, eval_id: u64, _now: f64) -> f64 {
        if eval_id < self.width {
            self.timing.t_a.sample(&mut self.rng)
        } else {
            0.0
        }
    }

    #[inline]
    fn evaluation_time(&mut self, _worker: usize, _eval_id: u64) -> f64 {
        self.timing.t_f.sample(&mut self.rng)
    }

    #[inline]
    fn consume(&mut self, _worker: usize, _eval_id: u64, _now: f64) -> f64 {
        self.timing.t_a.sample(&mut self.rng)
    }

    #[inline]
    fn comm_time(&mut self) -> f64 {
        self.timing.t_c.sample(&mut self.rng)
    }
}

/// Aggregate outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Total simulated elapsed time (until the N-th result is processed).
    pub elapsed: f64,
    /// Results processed (equals the configured N).
    pub completed: u64,
    /// Total time the master spent busy (communication + algorithm).
    pub master_busy: f64,
    /// Master utilization: busy / elapsed.
    pub master_utilization: f64,
    /// Mean time results waited for the master after arriving.
    pub mean_wait: f64,
    /// Worst wait.
    pub max_wait: f64,
    /// Worker evaluations whose results never advanced the run (lost to
    /// crashes, dropped messages, or duplicate suppression). Always 0
    /// without fault injection.
    pub wasted_nfe: u64,
}

/// Runs a generational synchronous master-slave simulation (Cantú-Paz's
/// topology, Fig. 1) until at least `n` evaluations have completed.
///
/// Per generation the master serially produces and sends one solution per
/// worker, evaluates one solution itself, receives results serially as
/// they arrive, then serially processes all `P` offspring before the next
/// generation begins (hence `T_A^sync ≈ P · T_A`). Slots `0..workers` are
/// the workers; slot `workers` is the master's own offspring, produced and
/// evaluated locally with no message. Nothing is lost, retried or
/// duplicated in this topology, so the loop drives the hooks directly
/// rather than through [`MasterEngine`].
pub fn run_sync<H: MasterSlaveHooks, R: Recorder + ?Sized>(
    hooks: &mut H,
    workers: usize,
    n: u64,
    rec: &R,
) -> RunOutcome {
    assert!(workers >= 1);
    assert!(n >= 1);
    let width = workers as u64 + 1;
    // Worker results in flight, keyed by arrival time.
    let mut queue = EventQueue::new();
    let mut now = 0.0f64;
    let mut master_busy = 0.0f64;
    let mut completed = 0u64;
    while completed < n {
        // The generation's evaluation ids are `completed + slot`.
        for worker in 0..workers {
            let eval_id = completed + worker as u64;
            let ta = hooks.produce(worker, eval_id, now);
            let tc = hooks.comm_time();
            rec.span(Actor::Master, Activity::Algorithm, now, now + ta);
            rec.span(
                Actor::Master,
                Activity::Communication,
                now + ta,
                now + ta + tc,
            );
            master_busy += ta + tc;
            now += ta + tc;
            let tf = hooks.evaluation_time(worker, eval_id);
            rec.span(Actor::Worker(worker), Activity::Evaluation, now, now + tf);
            queue.schedule_at(now + tf, worker);
        }
        let own = completed + workers as u64;
        let ta = hooks.produce(workers, own, now);
        let tf = hooks.evaluation_time(workers, own);
        rec.span(Actor::Master, Activity::Algorithm, now, now + ta);
        rec.span(Actor::Master, Activity::Evaluation, now + ta, now + ta + tf);
        master_busy += ta + tf;
        now += ta + tf;
        // Receives serialize on the master in arrival order, no earlier
        // than the master finishing its own evaluation.
        while let Some((ready_at, worker)) = queue.pop() {
            let start = now.max(ready_at);
            rec.span(Actor::Worker(worker), Activity::Idle, ready_at, start);
            let tc = hooks.comm_time();
            rec.span(Actor::Master, Activity::Communication, start, start + tc);
            master_busy += tc;
            now = start + tc;
        }
        // The barrier: the whole generation is processed in slot order.
        for slot in 0..=workers {
            let ta = hooks.consume(slot, completed + slot as u64, now);
            rec.span(Actor::Master, Activity::Algorithm, now, now + ta);
            master_busy += ta;
            now += ta;
        }
        completed += width;
    }
    rec.gauge("master.busy_seconds", master_busy);
    rec.gauge("master.utilization", master_busy / now);
    RunOutcome {
        elapsed: now,
        completed,
        master_busy,
        master_utilization: master_busy / now,
        mean_wait: 0.0,
        max_wait: 0.0,
        wasted_nfe: 0,
    }
}

/// Everything one asynchronous run produced: the timing aggregates and the
/// recovery ledger (empty under a quiet plan). The engine's decisions
/// reach `rec` as flight records (`engine.commands.*`), one per command.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncRun {
    /// Timing/throughput aggregates (with `wasted_nfe` populated).
    pub outcome: RunOutcome,
    /// Injected vs detected vs recovered faults.
    pub fault_log: FaultLog,
}

/// What the asynchronous adapter keeps in the event heap. Worker indices
/// are `u32` so an entry stays as small as a bare arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DesEvent {
    /// A result message reaches the master.
    Arrival { worker: u32, eval_id: u64 },
    /// A worker physically dies, for good.
    Death { worker: u32 },
    /// Deadline check for an outstanding evaluation. The event's own time
    /// fingerprints the deadline it was scheduled for; a reissue moves the
    /// deadline, turning the old event into a stale no-op.
    Timeout { worker: u32, eval_id: u64 },
    /// Background liveness sweep.
    Heartbeat,
}

// The heap entry of a fault-free run must not outgrow a bare arrival.
const _: () = assert!(std::mem::size_of::<DesEvent>() == 16);

/// DES adapter for the asynchronous topology: the engine's dispatches
/// consult the [`FaultPlan`] for the evaluation's fate (crash or not)
/// and the result message's fate (deliver, drop, duplicate),
/// turning each into first-class DES events; finite deadlines become
/// [`DesEvent::Timeout`] entries. The master's consume and the follow-up
/// produce form one contiguous hold, so the open `Algorithm` span started
/// by [`Transport::consume`] is closed by the next
/// [`Transport::dispatch`], or by the event loop when no dispatch follows.
struct AsyncDesTransport<'a, H: MasterSlaveHooks, R: Recorder + ?Sized> {
    hooks: &'a mut H,
    plan: &'a FaultPlan,
    timeout: f64,
    rec: &'a R,
    queue: EventQueue<DesEvent>,
    master_free_at: f64,
    master_busy: f64,
    wait_sum: f64,
    wait_max: f64,
    pending_algo: Option<f64>,
}

impl<H: MasterSlaveHooks, R: Recorder + ?Sized> AsyncDesTransport<'_, H, R> {
    /// The evaluation ran to completion on the worker; decide the fate of
    /// the result message.
    fn finish_evaluation(
        &mut self,
        worker: usize,
        eval_id: u64,
        start_eval: f64,
        tf: f64,
        attempts: u32,
        log: &mut FaultLog,
    ) {
        let finish = start_eval + tf;
        self.rec.span(
            Actor::Worker(worker),
            Activity::Evaluation,
            start_eval,
            finish,
        );
        let arrival = DesEvent::Arrival {
            worker: worker as u32,
            eval_id,
        };
        match self.plan.message_fate(eval_id, attempts) {
            MessageFate::Deliver => self.queue.schedule_at(finish, arrival),
            MessageFate::Drop => {
                log.inject(FaultKind::MessageDrop, worker, eval_id, finish);
                log.wasted_nfe += 1;
            }
            MessageFate::Duplicate => {
                log.inject(FaultKind::MessageDuplicate, worker, eval_id, finish);
                self.queue.schedule_at(finish, arrival);
                self.queue.schedule_at(finish, arrival);
            }
        }
    }

    /// Closes the `Algorithm` span of a consume no dispatch followed.
    fn flush_algorithm_span(&mut self) {
        if let Some(algo_start) = self.pending_algo.take() {
            self.rec.span(
                Actor::Master,
                Activity::Algorithm,
                algo_start,
                self.master_free_at,
            );
        }
    }
}

impl<H: MasterSlaveHooks, R: Recorder + ?Sized> Clock for AsyncDesTransport<'_, H, R> {
    fn now(&self) -> f64 {
        self.queue.now()
    }
}

impl<H: MasterSlaveHooks, R: Recorder + ?Sized> Transport for AsyncDesTransport<'_, H, R> {
    fn dispatch(
        &mut self,
        worker: usize,
        eval_id: u64,
        attempt: u32,
        seq: u64,
        log: &mut FaultLog,
    ) -> f64 {
        let start = self.master_free_at.max(self.queue.now());
        let ta = if attempt == 0 {
            self.hooks.produce(worker, eval_id, start)
        } else {
            self.hooks.reissue(worker, eval_id, start)
        };
        let tc = self.hooks.comm_time();
        let algo_start = self.pending_algo.take().unwrap_or(start);
        self.rec
            .span(Actor::Master, Activity::Algorithm, algo_start, start + ta);
        self.rec.span(
            Actor::Master,
            Activity::Communication,
            start + ta,
            start + ta + tc,
        );
        self.master_busy += ta + tc;
        self.master_free_at = start + ta + tc;
        let start_eval = self.master_free_at;
        let tf = self.hooks.evaluation_time(worker, eval_id);

        // An infinite timeout means no deadline is watched: nothing to
        // schedule, and the engine is told so.
        let deadline = start_eval + self.timeout;
        if deadline.is_finite() {
            self.queue.schedule_at(
                deadline,
                DesEvent::Timeout {
                    worker: worker as u32,
                    eval_id,
                },
            );
        }

        match self.plan.dispatch_fate(worker, seq) {
            DispatchFate::Normal => {
                self.finish_evaluation(worker, eval_id, start_eval, tf, attempt, log);
            }
            DispatchFate::CrashDuring { frac } => {
                let at = start_eval + tf * frac;
                log.inject(FaultKind::Crash, worker, eval_id, at);
                log.wasted_nfe += 1;
                self.queue.schedule_at(
                    at,
                    DesEvent::Death {
                        worker: worker as u32,
                    },
                );
            }
        }
        deadline
    }

    fn consume(&mut self, worker: usize, eval_id: u64, ready_at: f64) -> f64 {
        let grant = self.master_free_at.max(ready_at);
        let wait = grant - ready_at;
        self.wait_sum += wait;
        self.wait_max = self.wait_max.max(wait);
        self.rec
            .span(Actor::Worker(worker), Activity::Idle, ready_at, grant);
        let tc_in = self.hooks.comm_time();
        self.rec
            .span(Actor::Master, Activity::Communication, grant, grant + tc_in);
        let ta = self.hooks.consume(worker, eval_id, grant + tc_in);
        self.pending_algo = Some(grant + tc_in);
        self.master_busy += tc_in + ta;
        self.master_free_at = grant + tc_in + ta;
        self.master_free_at
    }

    fn absorb_duplicate(&mut self, _worker: usize, _eval_id: u64, ready_at: f64) -> f64 {
        let grant = self.master_free_at.max(ready_at);
        let tc_in = self.hooks.comm_time();
        self.rec
            .span(Actor::Master, Activity::Communication, grant, grant + tc_in);
        self.master_busy += tc_in;
        self.master_free_at = grant + tc_in;
        self.master_free_at
    }

    fn ping(&mut self, _worker: usize) -> (f64, f64) {
        let start = self.master_free_at.max(self.queue.now());
        // One round-trip of master time.
        let ping = self.hooks.comm_time() + self.hooks.comm_time();
        self.rec
            .span(Actor::Master, Activity::Communication, start, start + ping);
        self.master_busy += ping;
        self.master_free_at = start + ping;
        (start, self.master_free_at)
    }

    fn rearm_heartbeat(&mut self, at: f64) {
        self.queue.schedule_at(at, DesEvent::Heartbeat);
    }

    fn abandon(&mut self, eval_id: u64) {
        self.hooks.abandon(eval_id);
    }
}

/// Runs the fault-free asynchronous master-slave simulation until `n`
/// results have been consumed: [`run_async_with`] under a quiet plan and
/// [`EngineConfig::fault_free_async`].
///
/// `workers` is `P − 1`; the master does not evaluate in the asynchronous
/// topology (it is saturated with bookkeeping, matching the paper's
/// implementation). Activity spans and engine metrics are emitted through
/// `rec`; pass [`borg_obs::NoopRecorder`] for an uninstrumented run.
pub fn run_async<H: MasterSlaveHooks, R: Recorder + ?Sized>(
    hooks: &mut H,
    workers: usize,
    n: u64,
    rec: &R,
) -> RunOutcome {
    let quiet = FaultPlan::new(FaultConfig::default(), workers, n, 0);
    let config = EngineConfig::fault_free_async(workers, n);
    let outcome = run_async_with(hooks, config, &quiet, rec).outcome;
    assert_eq!(
        outcome.completed, n,
        "event queue drained before N results were consumed"
    );
    outcome
}

/// Runs the asynchronous master-slave simulation described by `config`
/// under `plan` until the budget is consumed (or every worker is lost).
///
/// The master survives worker crashes and message drop/duplication per
/// `plan`: it tracks a deadline per outstanding evaluation, pings and
/// reissues on timeout, quarantines dead workers (heartbeat sweep), and
/// suppresses duplicate results by evaluation id — all decided by the
/// shared [`MasterEngine`]. An infinite `config.policy.timeout` watches no
/// deadline and schedules no deadline event, so under a quiet plan the
/// heap holds exactly the result arrivals. Every event the engine handles
/// and every command it emits reaches `rec` as a flight record.
pub fn run_async_with<H: MasterSlaveHooks, R: Recorder + ?Sized>(
    hooks: &mut H,
    config: EngineConfig,
    plan: &FaultPlan,
    rec: &R,
) -> AsyncRun {
    assert!(
        config.discipline == PoolDiscipline::Assigned,
        "the asynchronous DES drives an assigned pool"
    );
    assert!(
        config.policy.timeout > 0.0,
        "recovery timeout must be positive"
    );
    assert!(
        config.policy.heartbeat_interval > 0.0,
        "heartbeat interval must be positive"
    );
    assert_eq!(
        plan.workers(),
        config.workers,
        "fault plan sized for a different worker pool"
    );
    assert!(
        u32::try_from(config.workers).is_ok(),
        "worker indices must fit the event payload"
    );

    let mut transport = AsyncDesTransport {
        hooks,
        plan,
        timeout: config.policy.timeout,
        rec,
        queue: EventQueue::new(),
        master_free_at: 0.0,
        master_busy: 0.0,
        wait_sum: 0.0,
        wait_max: 0.0,
        pending_algo: None,
    };
    let mut engine = MasterEngine::new(config);
    engine.seed(&mut transport, rec);

    while let Some((at, ev)) = transport.queue.pop() {
        let event = match ev {
            DesEvent::Arrival { worker, eval_id } => Event::ResultArrived {
                worker: worker as usize,
                eval_id,
                at,
            },
            DesEvent::Death { worker } => Event::WorkerDied {
                worker: worker as usize,
                at,
                lost_eval: None,
            },
            DesEvent::Timeout { worker, eval_id } => Event::DeadlineFired {
                eval_id,
                worker: worker as usize,
                deadline_bits: at.to_bits(),
                at,
            },
            DesEvent::Heartbeat => Event::HeartbeatTick { at },
        };
        engine.handle(event, &mut transport, rec);
        transport.flush_algorithm_span();
        if engine.finished() {
            break;
        }
    }

    // If the queue drained first (every worker dead) the run ends early with however many results were consumed.
    let end = if engine.finished() {
        transport.master_free_at
    } else {
        transport.queue.now()
    };
    let completed = engine.completed();
    let master_busy = transport.master_busy;
    let wait_sum = transport.wait_sum;
    let wait_max = transport.wait_max;
    let mut log = engine.into_log();
    log.finalize(end);
    let elapsed = if end > 0.0 { end } else { f64::MIN_POSITIVE };
    rec.gauge("master.busy_seconds", master_busy);
    rec.gauge("master.utilization", master_busy / elapsed);
    AsyncRun {
        outcome: RunOutcome {
            elapsed: end,
            completed,
            master_busy,
            master_utilization: master_busy / elapsed,
            mean_wait: wait_sum / completed.max(1) as f64,
            max_wait: wait_max,
            wasted_nfe: log.wasted_nfe,
        },
        fault_log: log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytical::{async_parallel_time, TimingParams};
    use borg_obs::{FlightRecorder, InMemoryRecorder, NoopRecorder, WithFlight};

    /// Constant-time hooks matching the analytical model's assumptions.
    struct ConstHooks {
        t: TimingParams,
    }

    impl MasterSlaveHooks for ConstHooks {
        fn produce(&mut self, _w: usize, _id: u64, _now: f64) -> f64 {
            // Per-interaction T_A is charged on consume.
            0.0
        }
        fn evaluation_time(&mut self, _w: usize, _id: u64) -> f64 {
            self.t.t_f
        }
        fn consume(&mut self, _w: usize, _id: u64, _now: f64) -> f64 {
            self.t.t_a
        }
        fn comm_time(&mut self) -> f64 {
            self.t.t_c
        }
    }

    #[test]
    fn unsaturated_async_matches_eq2() {
        // P = 17 (16 workers), T_F large enough that the master never
        // saturates: the DES must land on Eq. (2) up to pipeline fill.
        let t = TimingParams::new(0.01, 0.000_006, 0.000_03);
        let n = 20_000;
        let mut hooks = ConstHooks { t };
        let out = run_async(&mut hooks, 16, n, &NoopRecorder);
        let predicted = async_parallel_time(n, 17, t);
        let err = (out.elapsed - predicted).abs() / predicted;
        assert!(
            err < 0.01,
            "DES {} vs Eq.2 {} (err {err})",
            out.elapsed,
            predicted
        );
        assert_eq!(out.completed, n);
        // Workers start clustered (seeding spaces them only T_C apart) and
        // respace over the first few cycles; steady-state waits are tiny
        // relative to T_F.
        assert!(
            out.mean_wait < t.t_f / 10.0,
            "unexpected steady-state contention: mean wait {}",
            out.mean_wait
        );
    }

    #[test]
    fn saturated_async_is_bounded_by_master_throughput() {
        // Tiny T_F, many workers: throughput ≈ 1/(2 T_C + T_A), so the
        // elapsed time decouples from Eq. (2) — the analytical model's
        // failure mode the paper demonstrates.
        let t = TimingParams::new(0.000_1, 0.000_006, 0.000_03);
        let n = 10_000;
        let mut hooks = ConstHooks { t };
        let out = run_async(&mut hooks, 511, n, &NoopRecorder);
        let saturated = n as f64 * (2.0 * t.t_c + t.t_a);
        assert!(
            (out.elapsed - saturated).abs() / saturated < 0.05,
            "DES {} vs saturation bound {}",
            out.elapsed,
            saturated
        );
        let eq2 = async_parallel_time(n, 512, t);
        assert!(
            out.elapsed > 5.0 * eq2,
            "analytical model should be way off"
        );
        assert!(out.master_utilization > 0.99);
        assert!(out.mean_wait > 0.0);
    }

    #[test]
    fn async_elapsed_has_efficiency_peak_shape() {
        // Sweep P and check time first drops ~linearly then flattens.
        let t = TimingParams::new(0.001, 0.000_006, 0.000_03);
        let n = 5_000;
        let elapsed: Vec<f64> = [4usize, 8, 16, 64, 256]
            .iter()
            .map(|&w| {
                let mut hooks = ConstHooks { t };
                run_async(&mut hooks, w, n, &NoopRecorder).elapsed
            })
            .collect();
        assert!(
            elapsed[1] < elapsed[0] * 0.6,
            "doubling workers should ~halve time"
        );
        // Past saturation adding workers cannot speed things up.
        assert!(elapsed[4] > 0.9 * elapsed[3]);
        // And the saturated time cannot drop below the master bound.
        assert!(elapsed[4] >= n as f64 * (2.0 * t.t_c + t.t_a) * 0.99);
    }

    #[test]
    fn sync_matches_eq6_shape() {
        // Constant times, no straggling: generation time =
        // (P−1)(T_A + T_C) + T_A + T_F + (P−1) T_C + P·T_A… the Cantú-Paz
        // abstraction folds this into N/P (T_F + P T_C + P T_A). Check the
        // DES lands within a modest factor and scales the same way.
        let t = TimingParams::new(0.01, 0.000_006, 0.000_006);
        let n = 9_600;
        for workers in [7usize, 31] {
            let p = workers + 1;
            let mut hooks = ConstHooks { t };
            let out = run_sync(&mut hooks, workers, n, &NoopRecorder);
            let predicted = crate::analytical::sync_parallel_time(n, p as u32, t);
            let ratio = out.elapsed / predicted;
            assert!(
                (0.7..1.5).contains(&ratio),
                "P={p}: DES {} vs Eq.6 {} (ratio {ratio})",
                out.elapsed,
                predicted
            );
        }
    }

    #[test]
    fn sync_suffers_from_stragglers_async_does_not() {
        // High-variance T_F: the synchronous generation waits for the
        // slowest worker each round; the asynchronous pipeline does not.
        use borg_core::rng::SplitMix64;

        let n = 3_200;
        let workers = 15;
        let make = |seed: u64, cv: f64| {
            let timing = TimingModel::controlled_delay(0.01, cv, 0.000_006, 0.000_006);
            SampledTiming::new(timing, SplitMix64::new(seed).derive("noisy"), workers)
        };
        let sync_low = run_sync(&mut make(1, 0.05), workers, n, &NoopRecorder).elapsed;
        let sync_high = run_sync(&mut make(1, 1.0), workers, n, &NoopRecorder).elapsed;
        let async_low = run_async(&mut make(2, 0.05), workers, n, &NoopRecorder).elapsed;
        let async_high = run_async(&mut make(2, 1.0), workers, n, &NoopRecorder).elapsed;
        let sync_penalty = sync_high / sync_low;
        let async_penalty = async_high / async_low;
        assert!(
            sync_penalty > 1.5,
            "sync should slow with variance: {sync_penalty}"
        );
        assert!(
            async_penalty < sync_penalty * 0.75,
            "async penalty {async_penalty} vs sync {sync_penalty}"
        );
    }

    #[test]
    fn trace_records_all_activity_kinds() {
        let t = TimingParams::new(0.001, 0.000_1, 0.000_2);
        let mut hooks = ConstHooks { t };
        let rec = InMemoryRecorder::new();
        run_async(&mut hooks, 3, 20, &rec);
        let trace = rec.span_trace();
        let spans = trace.spans();
        assert!(spans.iter().any(|s| s.activity == Activity::Evaluation));
        assert!(spans.iter().any(|s| s.activity == Activity::Communication));
        assert!(spans.iter().any(|s| s.activity == Activity::Algorithm));
        assert!(spans.iter().any(|s| matches!(s.actor, Actor::Worker(_))));
        assert!(spans.iter().any(|s| s.actor == Actor::Master));
        // The recorder also derives the paper's timing histograms.
        let snap = rec.snapshot();
        assert!(snap.histograms["t_f_seconds"].count() >= 20);
        assert!(snap.histograms["t_c_seconds"].count() > 0);
        assert!(snap.histograms["t_a_seconds"].count() > 0);
        assert!(snap.gauges.contains_key("master.utilization"));
    }

    #[test]
    fn deterministic_given_same_hooks() {
        let t = TimingParams::new(0.005, 0.000_01, 0.000_05);
        let a = run_async(&mut ConstHooks { t }, 9, 500, &NoopRecorder);
        let b = run_async(&mut ConstHooks { t }, 9, 500, &NoopRecorder);
        assert_eq!(a, b);
    }

    // --- pinned bits of the fault-free run, recorded on the two-loop tree ---

    use crate::perfsim::{simulate_async_traced, PerfSimConfig, TimingModel};

    /// `[elapsed, master_busy, master_utilization, mean_wait, max_wait]`
    /// bits plus `(completed, wasted_nfe)`.
    fn outcome_bits(o: &RunOutcome) -> ([u64; 5], (u64, u64)) {
        (
            [
                o.elapsed.to_bits(),
                o.master_busy.to_bits(),
                o.master_utilization.to_bits(),
                o.mean_wait.to_bits(),
                o.max_wait.to_bits(),
            ],
            (o.completed, o.wasted_nfe),
        )
    }

    fn sampling_config(workers: u32, n: u64) -> PerfSimConfig {
        PerfSimConfig {
            processors: workers + 1,
            evaluations: n,
            timing: TimingModel::controlled_delay(0.001, 0.1, 0.000_006, 0.000_03),
            seed: 42,
        }
    }

    #[test]
    fn const_hooks_run_outcome_bits_are_pinned() {
        let t = TimingParams::new(0.001, 0.000_006, 0.000_03);
        let pins = [
            (
                (1, 50),
                [
                    0x3faa_acd9_e83e_425b,
                    0x3f61_3404_ea4a_8c12,
                    0x3fa4_a321_e76e_8e7b,
                    0,
                    0,
                ],
            ),
            (
                (15, 2_000),
                [
                    0x3fc1_e4d5_d80e_4999,
                    0x3fb5_8687_6e1d_eaf9,
                    0x3fe3_3f4b_8354_4609,
                    0x3ebf_b57c_f9fb_bb19,
                    0x3f40_83db_c233_15ce,
                ],
            ),
            (
                (255, 20_000),
                [
                    0x3fea_edc3_bd59_6e06,
                    0x3fea_edc3_bd59_8d18,
                    0x3ff0_0000_0000_1276,
                    0x3f83_ae41_0a50_0f47,
                    0x3f83_ccd0_fe8a_bd20,
                ],
            ),
        ];
        for ((w, n), floats) in pins {
            let out = run_async(&mut ConstHooks { t }, w, n, &NoopRecorder);
            assert_eq!(outcome_bits(&out), (floats, (n, 0)), "W={w}");
        }
    }

    #[test]
    fn sampling_hooks_run_outcome_bits_are_pinned() {
        let pins = [
            (
                (1, 50),
                [
                    0x3faa_8144_ccfa_cd15,
                    0x3f61_72ef_0ae5_364d,
                    0x3fa5_1106_4cc5_c701,
                    0,
                    0,
                ],
            ),
            (
                (15, 2_000),
                [
                    0x3fc2_3414_f385_8800,
                    0x3fb5_a405_2d66_6ac5,
                    0x3fe3_056d_0284_4a0f,
                    0x3ef6_1f27_e7e6_c79a,
                    0x3f24_ff89_0770_d400,
                ],
            ),
            (
                (255, 20_000),
                [
                    0x3feb_2c6e_f3d3_7cca,
                    0x3feb_2c6e_f3d3_9c92,
                    0x3ff0_0000_0000_12b7,
                    0x3f83_c747_cbc4_72ad,
                    0x3f84_2e40_364f_bd42,
                ],
            ),
        ];
        for ((w, n), floats) in pins {
            let out = simulate_async_traced(&sampling_config(w, n), &NoopRecorder).outcome;
            assert_eq!(outcome_bits(&out), (floats, (n, 0)), "W={w}");
        }
    }

    #[test]
    fn recorded_span_stream_is_pinned() {
        // The W = 15 sampling cell with a recorder attached: the outcome
        // does not move, and the span stream keeps its shape (one
        // `Algorithm` span per master hold).
        let rec = InMemoryRecorder::new();
        let out = simulate_async_traced(&sampling_config(15, 2_000), &rec).outcome;
        assert_eq!(out.elapsed.to_bits(), 0x3fc2_3414_f385_8800);
        assert_eq!(rec.span_trace().spans().len(), 9_139);
        let snap = rec.snapshot();
        let hist = |name: &str| {
            let h = &snap.histograms[name];
            (h.count(), h.sum().to_bits())
        };
        assert_eq!(hist("t_a_seconds"), (2_015, 0x3fae_f34d_6a16_202a));
        assert_eq!(hist("t_c_seconds"), (4_014, 0x3f98_a979_e16d_7bcc));
        assert_eq!(hist("idle_seconds"), (1_096, 0x3fa5_9a6c_f877_5eec));
    }

    #[test]
    fn sync_run_outcome_bits_are_pinned() {
        // The generational loop under constant and sampled timings. The
        // synchronous master never waits for itself, so `mean_wait` and
        // `max_wait` stay 0.
        let t = TimingParams::new(0.001, 0.000_006, 0.000_03);
        let pins = [
            (
                (1, 50),
                [
                    0x3f9b_7175_8e21_964e,
                    0x3f9b_7175_8e21_964e,
                    0x3ff0_0000_0000_0000,
                ],
                [
                    0x3f9c_a125_ed5e_7c70,
                    0x3f9b_ed88_9a2c_d35a,
                    0x3fef_373d_593f_82f8,
                ],
            ),
            (
                (7, 2_000),
                [
                    0x3fd5_2f1a_9fbe_7747,
                    0x3fd5_2f1a_9fbe_7747,
                    0x3ff0_0000_0000_0000,
                ],
                [
                    0x3fd6_c219_2d89_93ae,
                    0x3fd5_3f5d_39d9_236b,
                    0x3fed_e037_d98f_b165,
                ],
            ),
            (
                (31, 9_600),
                [
                    0x3fe6_631f_8a08_f6bf,
                    0x3fe6_631f_8a08_f6bf,
                    0x3ff0_0000_0000_0000,
                ],
                [
                    0x3fe6_b12d_9962_6e84,
                    0x3fe6_6dcc_5039_1fe4,
                    0x3fef_a0fb_5cec_9d9f,
                ],
            ),
        ];
        let with_no_wait = |[e, b, u]: [u64; 3], n: u64| ([e, b, u, 0, 0], (n, 0));
        for ((w, n), constant, sampled) in pins {
            let out = run_sync(&mut ConstHooks { t }, w, n, &NoopRecorder);
            assert_eq!(outcome_bits(&out), with_no_wait(constant, n), "const W={w}");
            let cfg = sampling_config(w as u32, n);
            let out = crate::perfsim::simulate_sync(&cfg, &NoopRecorder).outcome;
            assert_eq!(
                outcome_bits(&out),
                with_no_wait(sampled, n),
                "sampled W={w}"
            );
        }
    }

    // --- fault injection and recovery ---

    fn ft_policy(t: TimingParams) -> RecoveryPolicy {
        RecoveryPolicy::from_expected_eval_time(t.t_f, 4.0)
    }

    /// The fault-tolerant protocol on `plan` with constant timings.
    fn run_faulty(t: TimingParams, workers: usize, n: u64, plan: &FaultPlan) -> AsyncRun {
        let config = EngineConfig::fault_tolerant_async(workers, n, ft_policy(t));
        run_async_with(&mut ConstHooks { t }, config, plan, &NoopRecorder)
    }

    #[test]
    fn disabled_policy_watches_no_deadline() {
        // An infinite timeout is legal: no deadline event is scheduled
        // (one at t = ∞ would be rejected by the event queue).
        let t = TimingParams::new(0.01, 0.000_006, 0.000_03);
        let n = 5_000;
        let quiet = FaultPlan::new(FaultConfig::default(), 16, n, 77);
        let run = |config| {
            let run = run_async_with(&mut ConstHooks { t }, config, &quiet, &NoopRecorder);
            assert_eq!(run.fault_log, FaultLog::default());
            assert_eq!(run.outcome.completed, n);
            run.outcome
        };
        // Quiet plan + disabled policy + eager dispatch *is* `run_async`.
        let disabled = RecoveryPolicy::disabled();
        let base = run_async(&mut ConstHooks { t }, 16, n, &NoopRecorder);
        assert_eq!(base, run(EngineConfig::fault_free_async(16, n)));
        // On the budgeted protocol the deadlines a quiet run never misses
        // cost nothing: watching them or not gives the same bits.
        let unwatched = run(EngineConfig::fault_tolerant_async(16, n, disabled));
        let watched = run(EngineConfig::fault_tolerant_async(16, n, ft_policy(t)));
        assert_eq!(unwatched, watched);
        // Budgeted dispatch only skips the tail productions eager dispatch
        // leaves in flight; the N-th result lands at the same instant.
        assert_eq!(unwatched.elapsed.to_bits(), base.elapsed.to_bits());
    }

    #[test]
    fn saturated_faulty_run_tracks_the_master_queue() {
        // Tiny T_F, many workers, faults on: results pile up at the master,
        // and the waits show it. In master holds of `2 T_C + T_A`, a
        // result waits behind more than half the pool on average and
        // behind no more than two results per worker (a duplicate doubles
        // one).
        let t = TimingParams::new(0.000_1, 0.000_006, 0.000_03);
        let hold = 2.0 * t.t_c + t.t_a;
        let n = 4_000;
        let cfg = FaultConfig {
            drop_rate: 0.02,
            duplicate_rate: 0.02,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(cfg, 64, n, 9);
        let out = run_faulty(t, 64, n, &plan);
        assert_eq!(out.outcome.completed, n);
        assert!(out.fault_log.injected() > 0);
        let (mean, max) = (out.outcome.mean_wait / hold, out.outcome.max_wait / hold);
        assert!(
            mean > 32.0 && max <= 2.0 * 64.0,
            "mean wait {mean:.1}, worst {max:.1} holds"
        );
    }

    #[test]
    fn crashes_and_drops_still_complete_the_budget() {
        let t = TimingParams::new(0.01, 0.000_006, 0.000_03);
        let n = 2_000;
        let cfg = FaultConfig {
            crash_rate: 0.25,
            drop_rate: 0.02,
            duplicate_rate: 0.02,
        };
        let plan = FaultPlan::new(cfg, 16, n, 1234);
        assert!(plan.doomed_workers() > 0, "seed should doom someone");
        let out = run_faulty(t, 16, n, &plan);
        assert_eq!(out.outcome.completed, n);
        assert!(out.fault_log.injected() > 0);
        assert!(out.fault_log.all_recovered());
        assert_eq!(out.outcome.wasted_nfe, out.fault_log.wasted_nfe);
        assert!(out.fault_log.wasted_nfe > 0);
    }

    #[test]
    fn kill_every_worker_without_respawn_ends_partial() {
        let t = TimingParams::new(0.01, 0.000_006, 0.000_03);
        let n = 10_000;
        // Every worker is doomed, each at a dispatch drawn below n / 4, so
        // the pool is gone before the budget can complete.
        let cfg = FaultConfig {
            crash_rate: 1.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(cfg, 4, n, 5);
        assert_eq!(plan.doomed_workers(), 4);
        let out = run_faulty(t, 4, n, &plan);
        // No deadlock, no panic: the run ends early with what it had.
        assert!(out.outcome.completed < n);
        assert_eq!(out.fault_log.injected_of(FaultKind::Crash), 4);
        assert!(out.fault_log.all_recovered());
    }

    #[test]
    fn faulty_engine_is_deterministic() {
        let t = TimingParams::new(0.008, 0.000_01, 0.000_04);
        let n = 1_500;
        let cfg = FaultConfig {
            crash_rate: 0.2,
            drop_rate: 0.03,
            duplicate_rate: 0.03,
        };
        let run = || {
            let plan = FaultPlan::new(cfg.clone(), 12, n, 99);
            run_faulty(t, 12, n, &plan)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.fault_log.injected() > 0);
    }

    #[test]
    fn command_trace_mirrors_the_ledger() {
        let t = TimingParams::new(0.01, 0.000_006, 0.000_03);
        let n = 500;
        let cfg = FaultConfig {
            crash_rate: 0.3,
            drop_rate: 0.02,
            duplicate_rate: 0.02,
        };
        let plan = FaultPlan::new(cfg, 8, n, 4242);
        let config = EngineConfig::fault_tolerant_async(8, n, ft_policy(t));
        let ring = FlightRecorder::new(1 << 14);
        let rec = WithFlight::new(&NoopRecorder, &ring);
        let out = run_async_with(&mut ConstHooks { t }, config, &plan, &rec);
        let events = ring.events();
        assert_eq!(ring.recorded(), events.len() as u64, "the ring wrapped");
        let count = |code: &str, x_above: f64| {
            let hits = events.iter().filter(|e| e.code == code && e.x > x_above);
            hits.count() as u64
        };
        // The commands, read off the flight records, and the ledger agree
        // on every counter; a dispatch's `x` is its attempt.
        let log = &out.fault_log;
        assert_eq!(count("engine.commands.dispatch", 0.0), log.reissues);
        assert_eq!(
            count("engine.commands.consume", -1.0),
            out.outcome.completed
        );
        let dups = count("engine.commands.suppress_duplicate", -1.0);
        assert_eq!(dups, log.duplicates_suppressed);
        assert_eq!(
            count("engine.commands.retire_worker", -1.0),
            log.deaths_detected
        );
        // And a run the ring does not observe is bit-identical.
        let unobserved = run_faulty(t, 8, n, &plan);
        assert_eq!(unobserved, out);
    }
}
