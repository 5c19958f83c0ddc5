//! A real-thread asynchronous master-slave executor.
//!
//! This is the wall-clock counterpart of the virtual-time executor: the
//! master (caller thread) runs the [`BorgEngine`]; worker threads evaluate
//! candidates shipped over crossbeam channels, optionally with injected
//! delays (the paper's experimental control). It stands in for the
//! OpenMPI deployment on TACC Ranger at laptop scale and feeds *measured*
//! `T_A` / `T_F` / `T_C` samples into the distribution-fitting pipeline —
//! reproducing the paper's measurement methodology end-to-end.

use borg_core::algorithm::{BorgConfig, BorgEngine, Candidate};
use borg_core::problem::Problem;
use borg_core::rng::SplitMix64;
use borg_desim::fault::{DispatchFate, FaultConfig, FaultKind, FaultLog, FaultPlan, MessageFate};
use borg_desim::trace::{Activity, Actor};
use borg_models::dist::Dist;
use borg_obs::{NoopRecorder, Recorder};
use borg_protocol::{Clock, Command, EngineConfig, Event, MasterEngine, RecoveryPolicy, Transport};
use crossbeam::channel;
use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::delayed::precise_delay;

/// Configuration of a real-thread run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Number of worker threads (`P − 1`).
    pub workers: usize,
    /// Evaluations to perform.
    pub max_nfe: u64,
    /// Optional injected wall-clock delay per evaluation.
    pub delay: Option<Dist>,
    /// Seed (engine + per-worker delay streams + fault plan).
    pub seed: u64,
    /// Optional fault injection: worker threads consult the derived
    /// [`FaultPlan`] as they dequeue work and crash / hang / straggle /
    /// drop / duplicate accordingly. `None` injects nothing.
    ///
    /// Thread workers never respawn: `respawn_after` is a virtual-time
    /// concept and is ignored here (a crashed thread is gone for good;
    /// the master finishes with the surviving pool).
    pub faults: Option<FaultConfig>,
    /// Master-side deadline (seconds) before an outstanding evaluation is
    /// reissued. `None` derives `4 · E[delay]` (min 250 ms) when faults
    /// are enabled, and disables reissue otherwise. Independently of this
    /// knob the master *never* blocks unboundedly: all waits are
    /// `recv_timeout` ticks.
    pub reissue_timeout: Option<f64>,
    /// Return the [`MasterEngine`]'s [`Command`] trace in
    /// [`ThreadedRunResult::commands`] — the wall-clock executor's
    /// protocol transcript, for event-ordering assertions that do not
    /// depend on machine load.
    pub record_commands: bool,
}

impl ThreadedConfig {
    /// A fault-free configuration (the pre-fault-framework behaviour).
    pub fn new(workers: usize, max_nfe: u64, delay: Option<Dist>, seed: u64) -> Self {
        Self {
            workers,
            max_nfe,
            delay,
            seed,
            faults: None,
            reissue_timeout: None,
            record_commands: false,
        }
    }

    /// The [`FaultPlan`] a faulty run with this configuration will use
    /// (exposed for replay/inspection; `None` when faults are disabled).
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.as_ref().map(|f| {
            let plan_seed = SplitMix64::new(self.seed).derive_seed("fault-plan");
            FaultPlan::new(f.clone(), self.workers, self.max_nfe, plan_seed)
        })
    }

    /// The effective reissue deadline in seconds, if any.
    fn effective_reissue_timeout(&self) -> Option<f64> {
        self.reissue_timeout.or_else(|| {
            self.faults.as_ref().map(|_| {
                let base = self.delay.as_ref().map(|d| d.mean()).unwrap_or(0.0);
                (4.0 * base).max(0.25)
            })
        })
    }
}

/// Result of a real-thread run.
#[derive(Debug)]
pub struct ThreadedRunResult {
    /// Wall-clock elapsed seconds.
    pub elapsed: f64,
    /// Final engine state.
    pub engine: BorgEngine,
    /// Measured master algorithm times (produce + consume per interaction).
    pub ta_samples: Vec<f64>,
    /// Measured evaluation times (including injected delay), as seen by
    /// the workers. One entry per *consumed* result — suppressed
    /// duplicates and lost messages are excluded, so efficiency
    /// accounting downstream stays uncorrupted.
    pub tf_samples: Vec<f64>,
    /// Fault-injection/recovery ledger (empty without fault injection).
    pub fault_log: FaultLog,
    /// The protocol transcript; empty unless
    /// [`ThreadedConfig::record_commands`] asked for it.
    pub commands: Vec<Command>,
}

/// Objective value substituted for evaluations that panicked: finite (so
/// ε-box arithmetic stays well-defined) but worse than any real objective.
pub const PANIC_OBJECTIVE: f64 = 1e30;

/// Failures of the real-thread executor.
///
/// Worker threads catch panics inside `Problem::evaluate` and report a
/// sentinel result, so under normal operation none of these occur; they
/// surface as structured errors (instead of master-side panics) if the
/// worker pool dies anyway — e.g. a panic in the delay sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadedError {
    /// Every worker disconnected while evaluations were still owed.
    WorkersDisconnected {
        /// Evaluations the engine had consumed when the pool died.
        nfe_completed: u64,
        /// Dispatched candidates whose results will never arrive.
        in_flight: usize,
    },
    /// A worker reported a result id the master never dispatched.
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

struct WorkItem {
    id: u64,
    /// Transmission attempt (0 = original, > 0 = reissue); the fault plan
    /// re-rolls the message fate per attempt.
    attempt: u32,
    variables: Vec<f64>,
}

struct ResultItem {
    id: u64,
    worker: usize,
    objectives: Vec<f64>,
    constraints: Vec<f64>,
    eval_seconds: f64,
}

/// Out-of-band fault notification from a worker to the master — the
/// thread-level stand-in for the transport layer reporting a dead peer.
/// Crash/hang notes double as the master's death *detection* signal;
/// drop/duplicate/straggler notes only feed the ledger (the master still
/// discovers lost results the honest way, via its reissue deadline).
struct FaultNote {
    kind: FaultKind,
    worker: usize,
    eval_id: u64,
    at: f64,
}

/// Hard cap on reissues per evaluation in the real-thread executor.
const MAX_REISSUES: u32 = 32;

/// The executor half of the protocol on real threads: performs the
/// [`MasterEngine`]'s decisions on the crossbeam channels in wall-clock
/// time, measures `T_A`/`T_F`, and latches pool failures for the master
/// loop to surface as [`ThreadedError`]s.
struct ThreadedTransport<'a, R: Recorder + ?Sized> {
    engine: &'a mut BorgEngine,
    rec: &'a R,
    work_tx: &'a channel::Sender<WorkItem>,
    start: Instant,
    /// Master-side reissue deadline, if any (`None` disables deadlines).
    timeout: Option<f64>,
    /// Candidates in flight by eval id — the resend source for reissues,
    /// moved into the engine when the result is consumed.
    candidates: HashMap<u64, Candidate>,
    /// The result message the current engine event is about.
    pending: Option<ResultItem>,
    /// Open `T_A` sample: consume time, extended by the produce the engine
    /// may order next, so one sample covers one master interaction.
    pending_ta: Option<f64>,
    ta_samples: &'a mut Vec<f64>,
    tf_samples: &'a mut Vec<f64>,
    /// First pool failure observed while executing a command; the master
    /// loop checks after every event and aborts the run.
    error: Option<ThreadedError>,
}

impl<R: Recorder + ?Sized> ThreadedTransport<'_, R> {
    /// Close the open `T_A` sample, if any (after each handled event).
    fn flush_ta(&mut self) {
        if let Some(ta) = self.pending_ta.take() {
            self.ta_samples.push(ta);
        }
    }
}

impl<R: Recorder + ?Sized> Clock for ThreadedTransport<'_, R> {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl<R: Recorder + ?Sized> Transport for ThreadedTransport<'_, R> {
    fn dispatch(
        &mut self,
        _worker: usize,
        eval_id: u64,
        attempt: u32,
        _seq: u64,
        _log: &mut FaultLog,
    ) -> f64 {
        if self.error.is_some() {
            return f64::INFINITY;
        }
        let variables = if attempt == 0 {
            let began = self.now();
            let t0 = Instant::now();
            let cand = self.engine.produce();
            let ta = t0.elapsed().as_secs_f64();
            self.rec
                .span(Actor::Master, Activity::Algorithm, began, began + ta);
            // Seed-time produces stand alone; a produce ordered after a
            // consume extends that interaction's open sample.
            match self.pending_ta.as_mut() {
                Some(open) => *open += ta,
                None => self.ta_samples.push(ta),
            }
            let vars = cand.variables.clone();
            self.candidates.insert(eval_id, cand);
            vars
        } else {
            match self.candidates.get(&eval_id) {
                Some(cand) => cand.variables.clone(),
                // Raced away (consumed/abandoned since): nothing to resend.
                None => return f64::INFINITY,
            }
        };
        if self
            .work_tx
            .send(WorkItem {
                id: eval_id,
                attempt,
                variables,
            })
            .is_err()
        {
            // Placeholder counts; the master loop fills in the real ones.
            self.error
                .get_or_insert(ThreadedError::WorkersDisconnected {
                    nfe_completed: 0,
                    in_flight: 0,
                });
        }
        self.timeout
            .map(|t| self.now() + t)
            .unwrap_or(f64::INFINITY)
    }

    fn consume(&mut self, _worker: usize, eval_id: u64, _ready_at: f64) -> f64 {
        let (Some(result), Some(cand)) = (self.pending.take(), self.candidates.remove(&eval_id))
        else {
            return self.now();
        };
        self.tf_samples.push(result.eval_seconds);
        let began = self.now();
        let t0 = Instant::now();
        let sol = self
            .engine
            .make_solution(cand, result.objectives, result.constraints);
        self.engine.consume(sol);
        let ta = t0.elapsed().as_secs_f64();
        self.rec
            .span(Actor::Master, Activity::Algorithm, began, began + ta);
        self.pending_ta = Some(ta);
        self.now()
    }

    fn absorb_duplicate(&mut self, _worker: usize, _eval_id: u64, _ready_at: f64) -> f64 {
        self.pending = None;
        self.now()
    }

    fn ping(&mut self, _worker: usize) -> (f64, f64) {
        // No liveness probe exists at thread level: deaths are reported
        // out-of-band by fault notes, so the "ping" is instantaneous.
        let now = self.now();
        (now, now)
    }

    fn rearm_heartbeat(&mut self, _at: f64) {
        // Heartbeat sweep disabled (EngineConfig::shared_pool_async).
    }

    fn abandon(&mut self, eval_id: u64) {
        self.candidates.remove(&eval_id);
        self.error
            .get_or_insert(ThreadedError::ReissueLimitExceeded { eval_id });
    }

    fn unknown_result(&mut self, _worker: usize, eval_id: u64) {
        self.pending = None;
        self.error
            .get_or_insert(ThreadedError::UnknownResultId(eval_id));
    }
}

/// Surface a transport-latched failure, filling in the live counts.
fn surface<R: Recorder + ?Sized>(
    t: &mut ThreadedTransport<'_, R>,
    proto: &MasterEngine,
) -> Result<(), ThreadedError> {
    match t.error.take() {
        None => Ok(()),
        Some(ThreadedError::WorkersDisconnected { .. }) => {
            Err(ThreadedError::WorkersDisconnected {
                nfe_completed: t.engine.nfe(),
                in_flight: proto.outstanding_len(),
            })
        }
        Some(other) => Err(other),
    }
}

/// Runs the Borg MOEA on real threads.
///
/// Nondeterministic across runs (OS scheduling decides result arrival
/// order) but all engine invariants hold; use the virtual executor for
/// reproducible experiments.
///
/// The master never blocks unboundedly: every wait is a `recv_timeout`
/// tick, during which it drains fault notifications and reissues
/// outstanding evaluations whose deadline passed (when a reissue timeout
/// is in effect — see [`ThreadedConfig::reissue_timeout`]). With
/// [`ThreadedConfig::faults`] set, worker threads consult the derived
/// [`FaultPlan`] and crash, hang, straggle, drop or duplicate results
/// accordingly; the run still completes on the surviving pool and the
/// full ledger is returned in [`ThreadedRunResult::fault_log`].
///
/// # Errors
/// [`ThreadedError`] if the worker pool dies before the evaluation budget
/// completes (panicking *evaluations* are tolerated and do not cause this;
/// see [`PANIC_OBJECTIVE`]) or an evaluation exhausts its reissue budget.
pub fn run_threaded<P: Problem + ?Sized>(
    problem: &P,
    borg: BorgConfig,
    config: &ThreadedConfig,
) -> Result<ThreadedRunResult, ThreadedError> {
    run_threaded_observed(problem, borg, config, &NoopRecorder)
}

/// [`run_threaded`] emitting telemetry through `rec`: master `Algorithm`
/// and worker `Evaluation` spans (wall-clock seconds since run start),
/// protocol event/command counters, and end-of-run master-occupancy
/// gauges. The recorder is shared with the worker threads, so it must be
/// [`Sync`].
///
/// # Errors
/// As [`run_threaded`].
pub fn run_threaded_observed<P: Problem + ?Sized, R: Recorder + Sync + ?Sized>(
    problem: &P,
    borg: BorgConfig,
    config: &ThreadedConfig,
    rec: &R,
) -> Result<ThreadedRunResult, ThreadedError> {
    assert!(config.workers >= 1, "need at least one worker");
    assert!(config.max_nfe >= 1);

    let mut split = SplitMix64::new(config.seed);
    let engine_seed = split.derive_seed("threaded-engine");
    let mut engine = BorgEngine::new(problem, borg, engine_seed);
    let mut ta_samples: Vec<f64> = Vec::new();
    let mut tf_samples: Vec<f64> = Vec::new();

    let plan = config.fault_plan();
    let reissue_timeout = config.effective_reissue_timeout();
    // Tick granularity: fine enough to honour the deadline promptly, but
    // never busier than 1 kHz and never sleepier than 10 Hz.
    let tick = Duration::from_secs_f64(
        reissue_timeout
            .map(|t| (t / 4.0).clamp(0.001, 0.1))
            .unwrap_or(0.1),
    );

    let (work_tx, work_rx) = channel::unbounded::<WorkItem>();
    let (result_tx, result_rx) = channel::unbounded::<ResultItem>();
    let (fault_tx, fault_rx) = channel::unbounded::<FaultNote>();
    // Hung workers park on this channel; dropping `stop_tx` when the scope
    // ends wakes and releases them so the join never deadlocks.
    let (stop_tx, stop_rx) = channel::bounded::<()>(0);

    let start = Instant::now();
    // All recovery state — the deadline map, the seen-eval-id set, attempt
    // counters — lives in the shared protocol engine; this executor only
    // performs its commands.
    let mut proto = MasterEngine::new(EngineConfig::shared_pool_async(
        config.workers,
        config.max_nfe,
        RecoveryPolicy {
            timeout: reissue_timeout.unwrap_or(f64::INFINITY),
            heartbeat_interval: f64::INFINITY,
            max_reissues: MAX_REISSUES,
        },
    ));
    if config.record_commands {
        proto.record_commands();
    }

    let elapsed = std::thread::scope(|scope| {
        // Workers.
        for w in 0..config.workers {
            let work_rx = work_rx.clone();
            let result_tx = result_tx.clone();
            let fault_tx = fault_tx.clone();
            let stop_rx = stop_rx.clone();
            let delay = config.delay;
            let plan = plan.as_ref();
            let mut rng = SplitMix64::new(config.seed ^ (w as u64) << 32).derive("threaded-worker");
            scope.spawn(move || {
                let mut objs = vec![0.0; problem.num_objectives()];
                let mut cons = vec![0.0; problem.num_constraints()];
                let mut seq = 0u64;
                // Worker-side blocking receive is safe: the master drops
                // `work_tx` on every exit path, ending this loop.
                // borg-lint: allow(BORG-L006)
                while let Ok(item) = work_rx.recv() {
                    let fate = plan
                        .map(|p| p.dispatch_fate(w, seq))
                        .unwrap_or(DispatchFate::Normal);
                    seq += 1;
                    let t0 = Instant::now();
                    let mut straggle_mult = 1.0;
                    match fate {
                        DispatchFate::CrashDuring { frac } => {
                            // Burn part of the evaluation, then die
                            // silently: the thread exits, the result is
                            // never sent.
                            if let Some(d) = delay {
                                precise_delay(d.sample(&mut rng) * frac);
                            }
                            let _ = fault_tx.send(FaultNote {
                                kind: FaultKind::Crash,
                                worker: w,
                                eval_id: item.id,
                                at: start.elapsed().as_secs_f64(),
                            });
                            return;
                        }
                        DispatchFate::HangDuring => {
                            let _ = fault_tx.send(FaultNote {
                                kind: FaultKind::Hang,
                                worker: w,
                                eval_id: item.id,
                                at: start.elapsed().as_secs_f64(),
                            });
                            // Park until the run ends (recv fails once the
                            // master's scope drops `stop_tx`), then exit
                            // without ever responding — a true hang from
                            // the master's point of view, but one the
                            // thread join can still collect.
                            // borg-lint: allow(BORG-L006)
                            let _ = stop_rx.recv();
                            return;
                        }
                        DispatchFate::Straggle { factor } => {
                            straggle_mult = factor;
                            let _ = fault_tx.send(FaultNote {
                                kind: FaultKind::Straggler,
                                worker: w,
                                eval_id: item.id,
                                at: start.elapsed().as_secs_f64(),
                            });
                        }
                        DispatchFate::Normal => {}
                    }
                    if let Some(d) = delay {
                        precise_delay(d.sample(&mut rng) * straggle_mult);
                    } else if straggle_mult > 1.0 {
                        // No configured delay to scale: straggle on a
                        // small fixed base so the slowdown is observable.
                        precise_delay(0.000_5 * straggle_mult);
                    }
                    // Fault tolerance: user evaluation code may panic. A
                    // panicking evaluation is reported as a worst-possible
                    // result (huge objectives) so the engine's dominance
                    // machinery discards it naturally and the run — and
                    // the worker — keep going instead of deadlocking the
                    // master on a result that never arrives.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        problem.evaluate(&item.variables, &mut objs, &mut cons);
                    }));
                    if outcome.is_err() {
                        objs.iter_mut().for_each(|o| *o = PANIC_OBJECTIVE);
                        cons.iter_mut().for_each(|c| *c = PANIC_OBJECTIVE);
                    }
                    let eval_seconds = t0.elapsed().as_secs_f64();
                    let eval_end = start.elapsed().as_secs_f64();
                    rec.span(
                        Actor::Worker(w),
                        Activity::Evaluation,
                        eval_end - eval_seconds,
                        eval_end,
                    );
                    let message = plan
                        .map(|p| p.message_fate(item.id, item.attempt))
                        .unwrap_or(MessageFate::Deliver);
                    let copies = match message {
                        MessageFate::Deliver => 1,
                        MessageFate::Drop => {
                            let _ = fault_tx.send(FaultNote {
                                kind: FaultKind::MessageDrop,
                                worker: w,
                                eval_id: item.id,
                                at: start.elapsed().as_secs_f64(),
                            });
                            0
                        }
                        MessageFate::Duplicate => {
                            let _ = fault_tx.send(FaultNote {
                                kind: FaultKind::MessageDuplicate,
                                worker: w,
                                eval_id: item.id,
                                at: start.elapsed().as_secs_f64(),
                            });
                            2
                        }
                    };
                    let mut disconnected = false;
                    for _ in 0..copies {
                        if result_tx
                            .send(ResultItem {
                                id: item.id,
                                worker: w,
                                objectives: objs.clone(),
                                constraints: cons.clone(),
                                eval_seconds,
                            })
                            .is_err()
                        {
                            disconnected = true;
                            break;
                        }
                    }
                    if disconnected {
                        break;
                    }
                }
            });
        }
        drop(result_tx); // master keeps only the receiver
        drop(fault_tx);
        drop(stop_rx);

        // The master body runs in an inner closure so that `?` can
        // propagate pool failures while `work_tx` is still dropped on
        // every path — otherwise the scope would join workers blocked on
        // `recv()` forever.
        let master = (|| -> Result<f64, ThreadedError> {
            let mut t = ThreadedTransport {
                engine: &mut engine,
                rec,
                work_tx: &work_tx,
                start,
                timeout: reissue_timeout,
                candidates: HashMap::new(),
                pending: None,
                pending_ta: None,
                ta_samples: &mut ta_samples,
                tf_samples: &mut tf_samples,
                error: None,
            };

            // Seed one candidate per worker.
            proto.seed(&mut t, rec);
            surface(&mut t, &proto)?;

            // Main master loop: translate channel traffic into protocol
            // events; the engine decides what to do about each.
            while !proto.finished() {
                // Drain fault notifications first so the ledger is
                // populated before any detection/recovery bookkeeping.
                while let Ok(note) = fault_rx.try_recv() {
                    proto
                        .log_mut()
                        .inject(note.kind, note.worker, note.eval_id, note.at);
                    match note.kind {
                        FaultKind::Crash | FaultKind::Hang => {
                            // The transport reported a dead peer: the
                            // engine detects the death and reissues the
                            // lost evaluation right away rather than
                            // waiting for the deadline.
                            let at = t.now();
                            proto.handle(
                                Event::WorkerDied {
                                    worker: note.worker,
                                    at,
                                    will_respawn: false,
                                    lost_eval: Some(note.eval_id),
                                },
                                &mut t,
                                rec,
                            );
                            surface(&mut t, &proto)?;
                        }
                        FaultKind::MessageDrop => {
                            // The master does NOT get to act on this (a
                            // real master never sees a lost message); the
                            // reissue deadline discovers it. Ledger only.
                            proto.log_mut().wasted_nfe += 1;
                        }
                        FaultKind::MessageDuplicate | FaultKind::Straggler => {}
                    }
                }

                let result = match result_rx.recv_timeout(tick) {
                    Ok(result) => result,
                    Err(channel::RecvTimeoutError::Timeout) => {
                        let now = t.now();
                        for (eval_id, worker, deadline_bits) in proto.expired_deadlines(now) {
                            proto.handle(
                                Event::DeadlineFired {
                                    eval_id,
                                    worker,
                                    deadline_bits,
                                    at: now,
                                },
                                &mut t,
                                rec,
                            );
                            surface(&mut t, &proto)?;
                        }
                        continue;
                    }
                    Err(channel::RecvTimeoutError::Disconnected) => {
                        return Err(ThreadedError::WorkersDisconnected {
                            nfe_completed: t.engine.nfe(),
                            in_flight: proto.outstanding_len(),
                        })
                    }
                };
                let (worker, eval_id) = (result.worker, result.id);
                let at = t.now();
                t.pending = Some(result);
                proto.handle(
                    Event::ResultArrived {
                        worker,
                        eval_id,
                        at,
                    },
                    &mut t,
                    rec,
                );
                t.flush_ta();
                surface(&mut t, &proto)?;
            }
            Ok(start.elapsed().as_secs_f64())
        })();
        drop(work_tx); // workers drain and exit
        drop(stop_tx); // hung workers wake up and exit
        master
    });

    let elapsed = elapsed?;
    let master_busy: f64 = ta_samples.iter().sum();
    rec.gauge("master.busy_seconds", master_busy);
    rec.gauge(
        "master.utilization",
        master_busy / elapsed.max(f64::MIN_POSITIVE),
    );
    rec.counter("archive.box_probes", engine.archive().box_probes());
    let commands = proto.take_commands();
    let mut fault_log = proto.into_log();
    // Collect any fault notes still in transit (e.g. a straggler note
    // sent after the budget completed), then close the ledger.
    while let Ok(note) = fault_rx.try_recv() {
        fault_log.inject(note.kind, note.worker, note.eval_id, note.at);
    }
    fault_log.finalize(elapsed);

    Ok(ThreadedRunResult {
        elapsed,
        engine,
        ta_samples,
        tf_samples,
        fault_log,
        commands,
    })
}

/// Estimates the one-way message time `T_C` between two threads on this
/// machine by ping-ponging `rounds` messages over crossbeam channels and
/// halving the mean round trip — the thread-level analogue of the paper's
/// MPI round-trip measurement (they report 6 µs on TACC Ranger).
pub fn estimate_comm_time(rounds: u32) -> Result<f64, ThreadedError> {
    assert!(rounds >= 1);
    let (ping_tx, ping_rx) = channel::bounded::<()>(1);
    let (pong_tx, pong_rx) = channel::bounded::<()>(1);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            // Echo side: blocking receive is safe — the measuring side
            // drops `ping_tx` on every path, ending this loop.
            // borg-lint: allow(BORG-L006)
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
        // As in `run_threaded`, measure inside an inner closure so the
        // echo thread's sender is dropped (ending it) on every path.
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
    use borg_problems::dtlz::Dtlz;
    use borg_problems::zdt::{Zdt, ZdtVariant};

    #[test]
    fn threaded_run_completes_exact_nfe() {
        let problem = Zdt::new(ZdtVariant::Zdt1);
        let cfg = ThreadedConfig {
            workers: 4,
            max_nfe: 2_000,
            delay: None,
            seed: 1,
            faults: None,
            reissue_timeout: None,
            record_commands: false,
        };
        let result = run_threaded(&problem, BorgConfig::new(2, 0.01), &cfg).expect("run");
        assert_eq!(result.engine.nfe(), 2_000);
        assert!(result.engine.archive().len() > 5);
        result.engine.archive().check_invariants().unwrap();
        assert_eq!(result.tf_samples.len(), 2_000);
        assert!(result.elapsed > 0.0);
    }

    #[test]
    fn threaded_run_converges_like_serial() {
        let problem = Zdt::with_variables(ZdtVariant::Zdt1, 10);
        let cfg = ThreadedConfig {
            workers: 8,
            max_nfe: 6_000,
            delay: None,
            seed: 2,
            faults: None,
            reissue_timeout: None,
            record_commands: false,
        };
        let result = run_threaded(&problem, BorgConfig::new(2, 0.01), &cfg).expect("run");
        // Archive close to the true front f2 = 1 − √f1.
        let worst = result
            .engine
            .archive()
            .solutions()
            .iter()
            .map(|s| s.objectives()[1] - (1.0 - s.objectives()[0].max(0.0).sqrt()))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(worst < 0.4, "archive far from front: {worst}");
    }

    #[test]
    fn injected_delay_dominates_elapsed_time() {
        let problem = Dtlz::dtlz2_5();
        let t_f = 0.002;
        let nfe = 400u64;
        let workers = 8usize;
        let cfg = ThreadedConfig {
            workers,
            max_nfe: nfe,
            delay: Some(Dist::Constant(t_f)),
            seed: 3,
            faults: None,
            reissue_timeout: None,
            record_commands: true,
        };
        let result = run_threaded(&problem, BorgConfig::new(5, 0.06), &cfg).expect("run");
        let commands = &result.commands;
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
        for (i, c) in commands.iter().enumerate() {
            if i < workers {
                assert!(
                    matches!(c, Command::Dispatch { .. }),
                    "master consumed before the pool was seeded: {c:?} at {i}"
                );
            }
            match c {
                Command::Dispatch { attempt: 0, .. } => {
                    outstanding += 1;
                    assert!(outstanding <= workers, "overdispatched at command {i}");
                }
                Command::Consume { .. } => {
                    outstanding -= 1;
                    consumed += 1;
                    if consumed + (workers as u64) <= nfe {
                        assert!(
                            matches!(commands.get(i + 1), Some(Command::Dispatch { .. })),
                            "consume at command {i} was not followed by a refill"
                        );
                    }
                }
                Command::Finish => assert_eq!(i, commands.len() - 1),
                other => panic!("fault-free run emitted {other:?}"),
            }
        }
        assert_eq!(consumed, nfe);
        // Measured T_F must reflect the injected delay.
        let mean_tf = result.tf_samples.iter().sum::<f64>() / result.tf_samples.len() as f64;
        assert!((mean_tf - t_f).abs() < t_f, "mean T_F {mean_tf}");
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
        let cfg = ThreadedConfig {
            workers: 3,
            max_nfe: 1_500,
            delay: None,
            seed: 11,
            faults: None,
            reissue_timeout: None,
            record_commands: false,
        };
        let result = run_threaded(&Flaky, BorgConfig::new(2, 0.01), &cfg).expect("run");
        std::panic::set_hook(prev_hook);
        assert_eq!(result.engine.nfe(), 1_500);
        assert!(!result.engine.archive().is_empty());
        for s in result.engine.archive().solutions() {
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
    fn kill_half_the_worker_threads_mid_run_still_completes() {
        // Half the pool crashes early; the master must reissue their
        // in-flight work and finish the exact budget on the survivors.
        let problem = Zdt::new(ZdtVariant::Zdt1);
        let mut cfg = ThreadedConfig::new(6, 1_200, Some(Dist::Constant(0.000_2)), 17);
        cfg.faults = Some(FaultConfig {
            forced_crashes: (0..3)
                .map(|w| borg_desim::fault::ForcedCrash {
                    worker: w,
                    after_dispatches: 5 + w as u64,
                })
                .collect(),
            ..FaultConfig::default()
        });
        cfg.reissue_timeout = Some(0.05);
        let result = run_threaded(&problem, BorgConfig::new(2, 0.01), &cfg).expect("run");
        assert_eq!(result.engine.nfe(), 1_200);
        assert_eq!(result.tf_samples.len(), 1_200);
        assert_eq!(result.fault_log.injected_of(FaultKind::Crash), 3);
        assert!(result.fault_log.deaths_detected >= 3);
        assert!(result.fault_log.reissues >= 3);
        assert!(result.fault_log.all_recovered());
        result.engine.archive().check_invariants().unwrap();
    }

    #[test]
    fn threaded_crashes_hangs_and_message_faults_complete_the_budget() {
        // The acceptance scenario on real threads: crash rate 0.1 plus 1%
        // message loss (and some duplication) — no deadlock, no panic,
        // full budget on the surviving pool.
        let problem = Zdt::new(ZdtVariant::Zdt1);
        let mut cfg = ThreadedConfig::new(6, 1_000, Some(Dist::Constant(0.000_2)), 23);
        cfg.faults = Some(FaultConfig {
            crash_rate: 0.34, // ~2 of 6 workers doomed at this seed
            drop_rate: 0.01,
            duplicate_rate: 0.01,
            ..FaultConfig::default()
        });
        cfg.reissue_timeout = Some(0.05);
        let result = run_threaded(&problem, BorgConfig::new(2, 0.01), &cfg).expect("run");
        assert_eq!(result.engine.nfe(), 1_000);
        assert!(result.fault_log.all_recovered());
        // Suppression bookkeeping: consumed results == budget exactly, so
        // nothing was double-counted.
        assert_eq!(result.tf_samples.len(), 1_000);
        result.engine.archive().check_invariants().unwrap();
    }

    #[test]
    fn hung_worker_does_not_deadlock_the_run_or_the_join() {
        // One worker hangs on its very first item: the master's deadline
        // reissues the work and the scope join still returns (the hung
        // thread is released by the stop channel).
        let problem = Zdt::new(ZdtVariant::Zdt2);
        let mut cfg = ThreadedConfig::new(3, 400, Some(Dist::Constant(0.000_2)), 31);
        cfg.faults = Some(FaultConfig {
            hang_rate: 0.4, // doom at least one worker at this seed
            ..FaultConfig::default()
        });
        cfg.reissue_timeout = Some(0.05);
        let plan = cfg.fault_plan().expect("plan");
        assert!(plan.doomed_workers() >= 1, "seed should doom a worker");
        let result = run_threaded(&problem, BorgConfig::new(2, 0.01), &cfg).expect("run");
        assert_eq!(result.engine.nfe(), 400);
        assert!(result.fault_log.injected_of(FaultKind::Hang) >= 1);
        assert!(result.fault_log.all_recovered());
    }

    #[test]
    fn fault_free_run_has_empty_ledger() {
        let problem = Zdt::new(ZdtVariant::Zdt1);
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
        let problem = Zdt::new(ZdtVariant::Zdt2);
        let cfg = ThreadedConfig {
            workers: 2,
            max_nfe: 500,
            delay: None,
            seed: 4,
            faults: None,
            reissue_timeout: None,
            record_commands: false,
        };
        let result = run_threaded(&problem, BorgConfig::new(2, 0.01), &cfg).expect("run");
        assert!(result.ta_samples.len() as u64 >= 500);
        assert!(result.ta_samples.iter().all(|&t| (0.0..1.0).contains(&t)));
    }
}
