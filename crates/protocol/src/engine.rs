//! The [`MasterEngine`] state machine.

use crate::command::{Command, Event};
use crate::policy::RecoveryPolicy;
use crate::window::IdWindow;
use crate::Clock;
use borg_desim::fault::FaultLog;
use borg_obs::Recorder;
use std::collections::{BTreeSet, VecDeque};

/// Counter fed once per emitted [`Command`] (the per-command hook).
fn command_metric(c: &Command) -> &'static str {
    match c {
        Command::Dispatch { .. } => "engine.commands.dispatch",
        Command::Consume { .. } => "engine.commands.consume",
        Command::SuppressDuplicate { .. } => "engine.commands.suppress_duplicate",
        Command::Ping { .. } => "engine.commands.ping",
        Command::RetireWorker { .. } => "engine.commands.retire_worker",
        Command::Abandon { .. } => "engine.commands.abandon",
        Command::RearmHeartbeat => "engine.commands.rearm_heartbeat",
        Command::Finish => "engine.commands.finish",
    }
}

/// Counter fed once per handled [`Event`] (the per-event hook).
fn event_metric(e: &Event) -> &'static str {
    match e {
        Event::ResultArrived { .. } => "engine.events.result_arrived",
        Event::DeadlineFired { .. } => "engine.events.deadline_fired",
        Event::HeartbeatTick { .. } => "engine.events.heartbeat_tick",
        Event::WorkerDied { .. } => "engine.events.worker_died",
    }
}

/// Flight-recorder coordinates of a [`Command`]: `(eval_id, worker, x)`,
/// the order [`Recorder::flight`] documents, with `u64::MAX` for "not
/// applicable" and the dispatch attempt in `x`.
fn command_coords(c: &Command) -> (u64, u64, f64) {
    match c {
        Command::Dispatch {
            worker,
            eval_id,
            attempt,
        } => (*eval_id, *worker as u64, f64::from(*attempt)),
        Command::Consume { worker, eval_id } | Command::SuppressDuplicate { worker, eval_id } => {
            (*eval_id, *worker as u64, 0.0)
        }
        Command::Ping { worker } | Command::RetireWorker { worker } => {
            (u64::MAX, *worker as u64, 0.0)
        }
        Command::Abandon { eval_id } => (*eval_id, u64::MAX, 0.0),
        Command::RearmHeartbeat | Command::Finish => (u64::MAX, u64::MAX, 0.0),
    }
}

/// Flight-recorder coordinates of an [`Event`]: `(at, eval_id, worker)`.
fn event_coords(e: &Event) -> (f64, u64, u64) {
    match e {
        Event::ResultArrived {
            worker,
            eval_id,
            at,
        } => (*at, *eval_id, *worker as u64),
        Event::DeadlineFired {
            eval_id,
            worker,
            at,
            ..
        } => (*at, *eval_id, *worker as u64),
        Event::HeartbeatTick { at } => (*at, u64::MAX, u64::MAX),
        Event::WorkerDied {
            worker,
            at,
            lost_eval,
            ..
        } => (*at, lost_eval.unwrap_or(u64::MAX), *worker as u64),
    }
}

/// How dispatch targets relate to physical workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolDiscipline {
    /// The master assigns work to a specific worker and tracks per-worker
    /// liveness beliefs (the DES and virtual-time executors): reissues
    /// prefer the pinged worker, then an idle one, else queue.
    Assigned,
    /// Dispatch targets are notional (the wall-clock master, over threads
    /// or sockets): the adapter routes an item to the named worker while it
    /// is up and to any live one after, so reissues always go out
    /// immediately and nothing parks idle.
    Shared,
}

/// Whether the master keeps dispatching past the point where outstanding
/// work covers the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DispatchPolicy {
    /// Dispatch after every consume unconditionally (the fault-free
    /// asynchronous master: a few tail evaluations are still in flight
    /// when the budget completes — exactly the paper's topology).
    Eager,
    /// Stop dispatching fresh work once `completed + outstanding +
    /// abandoned` covers the budget (the fault-tolerant masters, which
    /// must terminate even when reissues inflate the in-flight set).
    Budgeted,
}

/// Static shape of a protocol run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Dispatch slots: the worker pool (`P − 1`).
    pub workers: usize,
    /// Results to consume before the protocol finishes.
    pub budget: u64,
    /// Deadline / heartbeat / reissue-cap policy.
    pub policy: RecoveryPolicy,
    /// Assigned vs shared worker pool.
    pub discipline: PoolDiscipline,
    /// Eager vs budgeted dispatch.
    pub(crate) dispatch_policy: DispatchPolicy,
}

impl EngineConfig {
    /// The fault-free asynchronous protocol (no deadlines, no sweep).
    pub fn fault_free_async(workers: usize, budget: u64) -> Self {
        EngineConfig {
            workers,
            budget,
            policy: RecoveryPolicy::disabled(),
            discipline: PoolDiscipline::Assigned,
            dispatch_policy: DispatchPolicy::Eager,
        }
    }

    /// The fault-tolerant asynchronous protocol on an assigned pool (the
    /// DES / virtual-time executors).
    pub fn fault_tolerant_async(workers: usize, budget: u64, policy: RecoveryPolicy) -> Self {
        EngineConfig {
            workers,
            budget,
            policy,
            discipline: PoolDiscipline::Assigned,
            dispatch_policy: DispatchPolicy::Budgeted,
        }
    }

    /// The asynchronous protocol on a shared pool (the wall-clock master):
    /// deadline reissue without the heartbeat sweep — deaths are reported
    /// out-of-band by the transport.
    pub fn shared_pool_async(workers: usize, budget: u64, policy: RecoveryPolicy) -> Self {
        EngineConfig {
            workers,
            budget,
            policy: RecoveryPolicy {
                heartbeat_interval: f64::INFINITY,
                ..policy
            },
            discipline: PoolDiscipline::Shared,
            dispatch_policy: DispatchPolicy::Budgeted,
        }
    }
}

/// The executor-specific half of the protocol. The engine decides *what*
/// happens; the transport performs it in its own notion of time and
/// returns the timestamps the recovery ledger needs. Call order is part
/// of the contract: adapters sample RNGs inside these calls, so the
/// engine invokes them in one deterministic order per event.
pub trait Transport: Clock {
    /// Send `eval_id` to `worker` (`attempt` 0 = fresh produce, else
    /// reissue; `seq` counts dispatches to this worker, for fate plans).
    /// Returns the deadline for this dispatch — `f64::INFINITY` when no
    /// deadline is being watched. `log` is the run's shared ledger:
    /// simulated transports record the faults they inject here (the engine
    /// itself only ever records detections and recoveries).
    fn dispatch(
        &mut self,
        worker: usize,
        eval_id: u64,
        attempt: u32,
        seq: u64,
        log: &mut FaultLog,
    ) -> f64;

    /// Master absorbs the result of `eval_id` from `worker` that became
    /// ready at `ready_at`; returns the time processing completed.
    fn consume(&mut self, worker: usize, eval_id: u64, ready_at: f64) -> f64;

    /// Master absorbs and discards a duplicate/superseded result message;
    /// returns the time the message was absorbed.
    fn absorb_duplicate(&mut self, worker: usize, eval_id: u64, ready_at: f64) -> f64;

    /// Ping `worker` after a deadline miss (one round trip of master
    /// time); returns `(start, end)` of the probe.
    fn ping(&mut self, worker: usize) -> (f64, f64);

    /// Re-arm the liveness sweep to tick at `at`.
    fn rearm_heartbeat(&mut self, at: f64);

    /// `eval_id` exhausted its reissue budget and was abandoned.
    fn abandon(&mut self, eval_id: u64);

    /// A result arrived for an id the master never dispatched — transport
    /// corruption in a real executor, a stale message in simulated ones.
    fn unknown_result(&mut self, _worker: usize, _eval_id: u64) {}
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    worker: usize,
    deadline: f64,
    attempts: u32,
}

/// The pure, deterministic master state machine.
///
/// Feed it [`Event`]s via [`MasterEngine::handle`]; it updates its
/// beliefs (outstanding deadlines, per-worker liveness), writes the
/// recovery ledger, and drives the [`Transport`]. It holds every piece of
/// state the three executors used to triplicate: the deadline map, the
/// reissue queue, attempt counters, the alive/believed-alive distinction,
/// and which eval ids were already consumed.
///
/// Ids are issued consecutively from `next_eval`, and an issued id leaves
/// `outstanding` only by being consumed or abandoned, so "already
/// consumed" is `id < next_eval`, not outstanding, not abandoned — no set
/// of completed ids is kept. `outstanding` is an [`IdWindow`]: memory is
/// O(newest − oldest outstanding id), not O(evaluations). That equals the
/// number in flight whenever every evaluation is eventually consumed or
/// abandoned, which a finite deadline guarantees (a lost evaluation is
/// reissued under its own id until the cap abandons it). Under an infinite
/// deadline an evaluation that never resolves pins the window's base, and
/// each id issued past it costs one 32-byte slot until the run ends.
///
/// `Clone` exists for the model checker (`borg-mc`): exhaustive
/// schedule exploration forks the engine at every branch point.
#[derive(Clone)]
pub struct MasterEngine {
    config: EngineConfig,
    // Identity of work.
    next_eval: u64,
    completed: u64,
    // Ids given up past the reissue cap (a late result for one of these
    // is unknown, not a duplicate).
    abandoned: BTreeSet<u64>,
    // Recovery state (the formerly triplicated core).
    outstanding: IdWindow<Outstanding>,
    reissue_queue: VecDeque<u64>,
    idle: BTreeSet<usize>,
    // Physical truth vs the master's beliefs.
    alive: Vec<bool>,
    dead_since: Vec<f64>,
    view_alive: Vec<bool>,
    current_eval: Vec<Option<u64>>,
    dispatch_count: Vec<u64>,
    finished: bool,
    log: FaultLog,
    // Timestamp of the event being handled, stamped onto the flight
    // record of every command it causes. Observability-only: excluded
    // from `state_digest` (it is derived from the event stream, never
    // consulted by a decision).
    flight_now: f64,
    // Mutation hook for the model checker's self-test: when false, the
    // duplicate-suppression check in `handle_arrival` is skipped, which
    // must make `borg-mc` report a double-consume violation.
    suppress_duplicates: bool,
}

impl MasterEngine {
    /// A fresh engine; call [`MasterEngine::seed`] to dispatch the
    /// initial work.
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.budget >= 1, "need at least one evaluation");
        let w = config.workers;
        MasterEngine {
            config,
            next_eval: 0,
            completed: 0,
            abandoned: BTreeSet::new(),
            outstanding: IdWindow::new(),
            reissue_queue: VecDeque::new(),
            idle: BTreeSet::new(),
            alive: vec![true; w],
            dead_since: vec![0.0; w],
            view_alive: vec![true; w],
            current_eval: vec![None; w],
            dispatch_count: vec![0; w],
            finished: false,
            log: FaultLog::default(),
            flight_now: 0.0,
            suppress_duplicates: true,
        }
    }

    /// Disable the duplicate-suppression check in the arrival path.
    ///
    /// This exists solely so the model checker's mutation self-test can
    /// prove its invariants have teeth: with suppression off, a schedule
    /// that delivers both copies of a duplicated result must consume the
    /// same eval id twice, which `borg-mc` must flag. Never call this
    /// outside that self-test.
    #[doc(hidden)]
    pub fn sabotage_duplicate_suppression(&mut self) {
        self.suppress_duplicates = false;
    }

    /// Reports one decision: a counter, and a flight record that holds
    /// the whole [`Command`] (see [`command_coords`]).
    fn emit<R: Recorder + ?Sized>(&self, rec: &R, c: Command) {
        rec.counter(command_metric(&c), 1);
        let (eval_id, worker, x) = command_coords(&c);
        rec.flight(command_metric(&c), self.flight_now, eval_id, worker, x);
    }

    /// Results consumed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Evaluations currently in flight.
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }

    /// Evaluations given up past the reissue cap.
    pub fn abandoned(&self) -> u64 {
        self.abandoned.len() as u64
    }

    /// Whether the budget is complete.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The shared recovery ledger. Transports record *injections* (ground
    /// truth about faults they created or observed) here; the engine
    /// records detections and recoveries.
    pub fn log_mut(&mut self) -> &mut FaultLog {
        &mut self.log
    }

    /// Read access to the ledger.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Consume the engine, yielding the ledger.
    pub fn into_log(self) -> FaultLog {
        self.log
    }

    /// Outstanding evaluations whose deadline is at or before `now`, as
    /// `(eval_id, worker, deadline_bits)` — the wall-clock master polls
    /// this on its tick and feeds each back as [`Event::DeadlineFired`].
    pub fn expired_deadlines(&self, now: f64) -> Vec<(u64, usize, u64)> {
        self.outstanding
            .iter()
            .filter(|(_, o)| o.deadline <= now)
            .map(|(id, o)| (id, o.worker, o.deadline.to_bits()))
            .collect()
    }

    /// A 64-bit digest over every decision-relevant field of the engine.
    ///
    /// Two engines with equal digests react identically to every future
    /// event sequence (modulo hash collisions): the digest covers work
    /// identity, the whole recovery core, liveness beliefs, and the
    /// ledger counters. The model checker keys its visited-state memo on
    /// this, which is what lets it fold interleavings that commute into
    /// the same state instead of re-exploring the subtree.
    pub fn state_digest(&self) -> u64 {
        // SplitMix64 finalizer, same construction as borg-desim's fault
        // plan hashing; re-derived locally to keep the digest definition
        // self-contained in this file.
        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn fold(h: u64, v: u64) -> u64 {
            mix(h ^ v)
        }
        let mut h = 0x243F_6A88_85A3_08D3u64;
        h = fold(h, self.next_eval);
        h = fold(h, self.completed);
        h = fold(h, u64::from(self.finished));
        // Once a generational barrier count and a count of workers due to
        // respawn (here) and the ledger's respawn count (below); constants
        // now, kept so recorded digests hold.
        h = fold(h, 0);
        h = fold(h, 0);
        h = fold(h, u64::from(self.suppress_duplicates));
        h = fold(h, self.outstanding.len() as u64);
        for (id, o) in self.outstanding.iter() {
            h = fold(h, id);
            h = fold(h, o.worker as u64);
            h = fold(h, o.deadline.to_bits());
            h = fold(h, u64::from(o.attempts));
        }
        // With `next_eval` and `outstanding` above, this fixes the set of
        // consumed ids too.
        h = fold(h, self.abandoned.len() as u64);
        for &id in &self.abandoned {
            h = fold(h, id);
        }
        h = fold(h, self.reissue_queue.len() as u64);
        for &id in &self.reissue_queue {
            h = fold(h, id);
        }
        h = fold(h, self.idle.len() as u64);
        for &w in &self.idle {
            h = fold(h, w as u64);
        }
        for w in 0..self.config.workers {
            h = fold(h, u64::from(self.alive.get(w).copied().unwrap_or(false)));
            h = fold(
                h,
                u64::from(self.view_alive.get(w).copied().unwrap_or(false)),
            );
            h = fold(
                h,
                self.dead_since
                    .get(w)
                    .copied()
                    .unwrap_or(f64::NAN)
                    .to_bits(),
            );
            h = fold(
                h,
                self.current_eval
                    .get(w)
                    .copied()
                    .flatten()
                    .map_or(u64::MAX, |id| id),
            );
            h = fold(h, self.dispatch_count.get(w).copied().unwrap_or(0));
        }
        h = fold(h, self.log.records.len() as u64);
        h = fold(h, self.log.reissues);
        h = fold(h, self.log.duplicates_suppressed);
        h = fold(h, self.log.wasted_nfe);
        h = fold(h, 0);
        h = fold(h, self.log.deaths_detected);
        h
    }

    /// Dispatch the initial work: one item per slot, in slot order, plus
    /// the first heartbeat when the policy sweeps. `rec` observes but
    /// never influences the protocol (pass [`borg_obs::NoopRecorder`] for
    /// a free no-op).
    pub fn seed<T: Transport, R: Recorder + ?Sized>(&mut self, t: &mut T, rec: &R) {
        self.flight_now = t.now();
        for w in 0..self.config.workers {
            let id = self.next_eval;
            self.next_eval += 1;
            self.dispatch(t, rec, w, id, 0);
        }
        if self.config.policy.heartbeat_interval.is_finite() {
            self.emit(rec, Command::RearmHeartbeat);
            t.rearm_heartbeat(self.config.policy.heartbeat_interval);
        }
    }

    /// Advance the protocol by one event. `rec` receives one counter per
    /// event and per emitted command, the latency/slack histograms, and
    /// the occupancy gauges; it never influences the decisions.
    pub fn handle<T: Transport, R: Recorder + ?Sized>(&mut self, event: Event, t: &mut T, rec: &R) {
        // A corrupt transport could name a worker slot the engine never
        // configured; indexing the per-worker vectors with it would
        // panic. Reject such events up front instead (BORG-L012: public
        // entry points of this crate must not panic on bad input).
        let named_worker = match event {
            Event::ResultArrived { worker, .. }
            | Event::DeadlineFired { worker, .. }
            | Event::WorkerDied { worker, .. } => Some(worker),
            Event::HeartbeatTick { .. } => None,
        };
        if named_worker.is_some_and(|w| w >= self.config.workers) {
            rec.counter("engine.events.rejected", 1);
            return;
        }
        rec.counter(event_metric(&event), 1);
        let (at, eval_id, worker) = event_coords(&event);
        rec.flight(event_metric(&event), at, eval_id, worker, 0.0);
        self.flight_now = at;
        match event {
            Event::ResultArrived {
                worker,
                eval_id,
                at,
            } => self.handle_arrival(t, rec, at, worker, eval_id),
            Event::DeadlineFired {
                eval_id,
                worker,
                deadline_bits,
                ..
            } => self.handle_deadline(t, rec, eval_id, worker, deadline_bits),
            Event::HeartbeatTick { at } => self.handle_heartbeat(t, rec, at),
            Event::WorkerDied {
                worker,
                at,
                lost_eval,
            } => self.handle_death(t, rec, worker, at, lost_eval),
        }
        rec.gauge("engine.outstanding", self.outstanding.len() as f64);
        rec.gauge("engine.idle_workers", self.idle.len() as f64);
    }

    /// Produce (or re-send) `eval_id` to `worker`.
    #[expect(
        clippy::indexing_slicing,
        reason = "every caller passes a slot `handle` checked against `workers`, one from `0..workers`, or one an earlier dispatch stored; per-worker vectors hold `workers` entries"
    )]
    fn dispatch<T: Transport, R: Recorder + ?Sized>(
        &mut self,
        t: &mut T,
        rec: &R,
        worker: usize,
        eval_id: u64,
        attempts: u32,
    ) {
        if attempts > 0 {
            self.log.reissues += 1;
            rec.counter("engine.reissues", 1);
        }
        self.current_eval[worker] = Some(eval_id);
        self.idle.remove(&worker);
        let seq = self.dispatch_count[worker];
        self.dispatch_count[worker] += 1;
        self.emit(
            rec,
            Command::Dispatch {
                worker,
                eval_id,
                attempt: attempts,
            },
        );
        let sent_at = t.now();
        let deadline = t.dispatch(worker, eval_id, attempts, seq, &mut self.log);
        rec.observe("engine.dispatch_latency_seconds", t.now() - sent_at);
        self.outstanding.insert(
            eval_id,
            Outstanding {
                worker,
                deadline,
                attempts,
            },
        );
    }

    /// Give a freed worker its next assignment: queued reissues first,
    /// then fresh work, otherwise park it idle.
    #[expect(
        clippy::indexing_slicing,
        reason = "`worker` is a slot `handle` checked against `workers` or one an earlier dispatch stored; per-worker vectors hold `workers` entries"
    )]
    fn assign_next<T: Transport, R: Recorder + ?Sized>(
        &mut self,
        t: &mut T,
        rec: &R,
        worker: usize,
    ) {
        self.current_eval[worker] = None;
        if self.config.discipline == PoolDiscipline::Assigned && !self.view_alive[worker] {
            return;
        }
        if self.config.discipline == PoolDiscipline::Assigned {
            while let Some(id) = self.reissue_queue.pop_front() {
                if let Some(o) = self.outstanding.get(id).copied() {
                    self.dispatch(t, rec, worker, id, o.attempts + 1);
                    return;
                }
            }
        }
        let fresh_ok = match self.config.dispatch_policy {
            DispatchPolicy::Eager => true,
            DispatchPolicy::Budgeted => {
                self.completed + self.outstanding.len() as u64 + self.abandoned()
                    < self.config.budget
            }
        };
        if fresh_ok {
            let id = self.next_eval;
            self.next_eval += 1;
            self.dispatch(t, rec, worker, id, 0);
        } else {
            self.idle.insert(worker);
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`handle` rejected any `worker` >= `workers`, and `o.worker` was stored by `dispatch`; per-worker vectors hold `workers` entries"
    )]
    fn handle_arrival<T: Transport, R: Recorder + ?Sized>(
        &mut self,
        t: &mut T,
        rec: &R,
        ready_at: f64,
        worker: usize,
        eval_id: u64,
    ) {
        let Some(o) = self.outstanding.remove(eval_id) else {
            // Issued, not in flight, not abandoned: it was consumed.
            let consumed = eval_id < self.next_eval && !self.abandoned.contains(&eval_id);
            if self.suppress_duplicates && consumed {
                // Duplicate or superseded copy: absorb the message, count
                // the wasted work, free the worker if it was still pinned
                // on it.
                self.emit(rec, Command::SuppressDuplicate { worker, eval_id });
                let end = t.absorb_duplicate(worker, eval_id, ready_at);
                self.log.duplicates_suppressed += 1;
                self.log.wasted_nfe += 1;
                self.log.recover_eval(eval_id, end);
                if self.current_eval[worker] == Some(eval_id) {
                    self.assign_next(t, rec, worker);
                }
            } else {
                // Abandoned past max_reissues or never issued (simulated
                // transports: stale; real ones: corruption, they decide).
                t.unknown_result(worker, eval_id);
            }
            return;
        };
        // How much headroom the deadline had left when the result arrived
        // (negative slack means a reissue raced the original and lost).
        if o.deadline.is_finite() {
            rec.observe("engine.deadline_slack_seconds", o.deadline - ready_at);
        }
        // Whose dispatch slot this result frees: on an assigned pool the
        // delivering worker's, on a shared pool the notional assignee's
        // (any live worker may have been handed the item).
        let freed = match self.config.discipline {
            PoolDiscipline::Assigned => worker,
            PoolDiscipline::Shared => o.worker,
        };
        self.emit(rec, Command::Consume { worker, eval_id });
        let end = t.consume(worker, eval_id, ready_at);
        rec.observe("engine.consume_seconds", end - ready_at);
        self.completed += 1;
        self.log.recover_eval(eval_id, end);
        // Results prove liveness: a quarantined worker that speaks again
        // (e.g. a straggler mistaken for dead) rejoins the pool.
        self.view_alive[worker] = self.alive[worker] || self.view_alive[worker];

        if self.completed >= self.config.budget {
            self.finished = true;
            self.emit(rec, Command::Finish);
            return;
        }
        if self.current_eval[freed] == Some(eval_id) {
            self.assign_next(t, rec, freed);
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`handle` rejected any `worker` >= `workers`, and `o.worker` was stored by `dispatch`; per-worker vectors hold `workers` entries"
    )]
    fn handle_deadline<T: Transport, R: Recorder + ?Sized>(
        &mut self,
        t: &mut T,
        rec: &R,
        eval_id: u64,
        worker: usize,
        deadline_bits: u64,
    ) {
        let Some(o) = self.outstanding.get(eval_id).copied() else {
            // Evaluation already consumed; if this worker's copy never
            // arrived (its message was dropped after a reissue raced it),
            // stop waiting on it.
            if self.current_eval[worker] == Some(eval_id) {
                self.assign_next(t, rec, worker);
            }
            return;
        };
        if o.deadline.to_bits() != deadline_bits {
            return; // superseded by a reissue
        }
        // Ping the assigned worker: one round-trip of master time.
        self.emit(rec, Command::Ping { worker: o.worker });
        let (start, end) = t.ping(o.worker);
        rec.observe("engine.ping_seconds", end - start);
        self.log.detect_eval(eval_id, start);
        let w = o.worker;
        if !self.alive[w] {
            if self.view_alive[w] {
                self.view_alive[w] = false;
                self.idle.remove(&w);
                self.emit(rec, Command::RetireWorker { worker: w });
                self.log.detect_worker_death(w, end);
            }
            self.current_eval[w] = None;
        }
        if o.attempts >= self.config.policy.max_reissues {
            self.abandon(t, rec, eval_id);
            // A live worker still pinned on the abandoned evaluation is
            // free again (a shared pool's adapter ends the run instead).
            if self.config.discipline == PoolDiscipline::Assigned
                && self.current_eval[w] == Some(eval_id)
            {
                self.assign_next(t, rec, w);
            }
            return;
        }
        match self.config.discipline {
            // Shared pool: the reissue goes straight back out — the
            // adapter routes it to a live worker.
            PoolDiscipline::Shared => self.dispatch(t, rec, w, eval_id, o.attempts + 1),
            // Assigned pool: back to the pinged worker when it is believed
            // alive (it lost the message, or is straggling and the retry
            // races it), else to any idle worker, else queue until one
            // frees up.
            PoolDiscipline::Assigned => {
                if self.view_alive[w] {
                    self.dispatch(t, rec, w, eval_id, o.attempts + 1);
                } else if let Some(v) = self.idle.iter().next().copied() {
                    self.idle.remove(&v);
                    self.dispatch(t, rec, v, eval_id, o.attempts + 1);
                } else {
                    self.park_for_reissue(eval_id);
                }
            }
        }
    }

    /// Give up on `eval_id`: it exhausted its reissue budget.
    fn abandon<T: Transport, R: Recorder + ?Sized>(&mut self, t: &mut T, rec: &R, eval_id: u64) {
        self.outstanding.remove(eval_id);
        self.abandoned.insert(eval_id);
        self.emit(rec, Command::Abandon { eval_id });
        t.abandon(eval_id);
    }

    /// Queue `eval_id` for reissue when a worker frees up, neutralising
    /// its pending deadline so it is not reissued twice.
    fn park_for_reissue(&mut self, eval_id: u64) {
        if let Some(o) = self.outstanding.get_mut(eval_id) {
            o.deadline = f64::INFINITY;
            self.reissue_queue.push_back(eval_id);
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`w` runs over `0..workers`; per-worker vectors hold `workers` entries"
    )]
    fn handle_heartbeat<T: Transport, R: Recorder + ?Sized>(
        &mut self,
        t: &mut T,
        rec: &R,
        now: f64,
    ) {
        for w in 0..self.config.workers {
            if self.alive[w]
                || !self.view_alive[w]
                || now - self.dead_since[w] < self.config.policy.heartbeat_interval
            {
                continue;
            }
            self.view_alive[w] = false;
            self.idle.remove(&w);
            self.emit(rec, Command::RetireWorker { worker: w });
            self.log.detect_worker_death(w, now);
            if let Some(id) = self.current_eval[w].take() {
                if let Some(attempts) = self.outstanding.get(id).map(|o| o.attempts) {
                    // At the cap, abandon whether or not a worker is idle;
                    // otherwise `dispatch` takes the idle worker out of the
                    // pool.
                    if attempts >= self.config.policy.max_reissues {
                        self.abandon(t, rec, id);
                    } else if let Some(v) = self.idle.first().copied() {
                        self.dispatch(t, rec, v, id, attempts + 1);
                    } else {
                        self.park_for_reissue(id);
                    }
                }
            }
        }
        // Keep sweeping only while the run can still make progress: some
        // worker is alive and the target is still reachable despite
        // abandoned evaluations.
        if !self.finished
            && self.completed + self.abandoned() < self.config.budget
            && self.alive.iter().any(|&a| a)
        {
            self.emit(rec, Command::RearmHeartbeat);
            t.rearm_heartbeat(now + self.config.policy.heartbeat_interval);
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`handle` rejected any `worker` >= `workers`; per-worker vectors hold `workers` entries"
    )]
    fn handle_death<T: Transport, R: Recorder + ?Sized>(
        &mut self,
        t: &mut T,
        rec: &R,
        worker: usize,
        at: f64,
        lost_eval: Option<u64>,
    ) {
        self.alive[worker] = false;
        self.dead_since[worker] = at;
        // Out-of-band death report (real transports): detect immediately
        // and reissue the lost evaluation rather than waiting for its
        // deadline. Simulated transports pass `lost_eval: None` and the
        // deadline/heartbeat machinery discovers the loss instead.
        if self.config.discipline == PoolDiscipline::Shared {
            if self.view_alive[worker] {
                self.view_alive[worker] = false;
                self.emit(rec, Command::RetireWorker { worker });
                self.log.detect_worker_death(worker, at);
            }
            if let Some(id) = lost_eval {
                if let Some(o) = self.outstanding.get(id).copied() {
                    self.log.wasted_nfe += 1;
                    if o.attempts >= self.config.policy.max_reissues {
                        self.abandon(t, rec, id);
                    } else {
                        self.dispatch(t, rec, worker, id, o.attempts + 1);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_obs::{FlightEvent, FlightRecorder, InMemoryRecorder, NoopRecorder, WithFlight};

    /// The command a flight record reports, rebuilt from its coordinates:
    /// `None` for an event record. The inverse of [`command_coords`].
    fn command_of(e: &FlightEvent) -> Option<Command> {
        let (eval_id, worker) = (e.a, e.b as usize);
        Some(match e.code.strip_prefix("engine.commands.")? {
            "dispatch" => Command::Dispatch {
                worker,
                eval_id,
                attempt: e.x as u32,
            },
            "consume" => Command::Consume { worker, eval_id },
            "suppress_duplicate" => Command::SuppressDuplicate { worker, eval_id },
            "ping" => Command::Ping { worker },
            "retire_worker" => Command::RetireWorker { worker },
            "abandon" => Command::Abandon { eval_id },
            "rearm_heartbeat" => Command::RearmHeartbeat,
            "finish" => Command::Finish,
            other => panic!("unknown command code {other}"),
        })
    }

    /// Every command `ring` holds, in decision order; the ring must not
    /// have wrapped.
    fn commands(ring: &FlightRecorder) -> Vec<Command> {
        let events = ring.events();
        assert_eq!(ring.recorded(), events.len() as u64, "the ring wrapped");
        events.iter().filter_map(command_of).collect()
    }

    /// A transport that just records calls and hands out fixed deadlines.
    struct NullTransport {
        now: f64,
        timeout: f64,
        calls: Vec<String>,
    }

    impl NullTransport {
        fn new(timeout: f64) -> Self {
            NullTransport {
                now: 0.0,
                timeout,
                calls: Vec::new(),
            }
        }
    }

    impl Clock for NullTransport {
        fn now(&self) -> f64 {
            self.now
        }
    }

    impl Transport for NullTransport {
        fn dispatch(
            &mut self,
            worker: usize,
            eval_id: u64,
            attempt: u32,
            _seq: u64,
            _log: &mut FaultLog,
        ) -> f64 {
            self.calls
                .push(format!("dispatch {worker} {eval_id} {attempt}"));
            self.now + self.timeout
        }
        fn consume(&mut self, worker: usize, eval_id: u64, _ready_at: f64) -> f64 {
            self.calls.push(format!("consume {worker} {eval_id}"));
            self.now
        }
        fn absorb_duplicate(&mut self, worker: usize, eval_id: u64, _ready_at: f64) -> f64 {
            self.calls.push(format!("dup {worker} {eval_id}"));
            self.now
        }
        fn ping(&mut self, worker: usize) -> (f64, f64) {
            self.calls.push(format!("ping {worker}"));
            (self.now, self.now)
        }
        fn rearm_heartbeat(&mut self, at: f64) {
            self.calls.push(format!("heartbeat {at}"));
        }
        fn abandon(&mut self, eval_id: u64) {
            self.calls.push(format!("abandon {eval_id}"));
        }
        fn unknown_result(&mut self, worker: usize, eval_id: u64) {
            self.calls.push(format!("unknown {worker} {eval_id}"));
        }
    }

    fn arrival(worker: usize, eval_id: u64, at: f64) -> Event {
        Event::ResultArrived {
            worker,
            eval_id,
            at,
        }
    }

    #[test]
    fn fault_free_pipeline_runs_to_budget() {
        let mut t = NullTransport::new(f64::INFINITY);
        let mut e = MasterEngine::new(EngineConfig::fault_free_async(2, 4));
        let ring = FlightRecorder::new(64);
        let rec = WithFlight::new(&NoopRecorder, &ring);
        e.seed(&mut t, &rec);
        assert_eq!(e.outstanding_len(), 2);
        // Workers alternate; eager dispatch keeps the pipeline full even
        // on the last consume.
        e.handle(arrival(0, 0, 1.0), &mut t, &rec);
        e.handle(arrival(1, 1, 1.1), &mut t, &rec);
        e.handle(arrival(0, 2, 2.0), &mut t, &rec);
        assert!(!e.finished());
        e.handle(arrival(1, 3, 2.1), &mut t, &rec);
        assert!(e.finished());
        assert_eq!(e.completed(), 4);
        let cmds = commands(&ring);
        // Every consume of a non-final result is followed by a dispatch.
        assert_eq!(
            cmds.iter()
                .filter(|c| matches!(c, Command::Dispatch { .. }))
                .count(),
            2 + 3 // seeding + one per non-final consume
        );
        assert!(matches!(cmds.last(), Some(Command::Finish)));
    }

    #[test]
    fn duplicate_results_are_suppressed_by_eval_id() {
        let mut t = NullTransport::new(f64::INFINITY);
        let mut e = MasterEngine::new(EngineConfig::fault_free_async(1, 3));
        e.seed(&mut t, &NoopRecorder);
        e.handle(arrival(0, 0, 1.0), &mut t, &NoopRecorder);
        e.handle(arrival(0, 0, 1.0), &mut t, &NoopRecorder); // duplicate copy
        assert_eq!(e.completed(), 1);
        assert_eq!(e.log().duplicates_suppressed, 1);
        assert_eq!(e.log().wasted_nfe, 1);
    }

    #[test]
    fn results_for_abandoned_or_never_issued_ids_are_unknown() {
        let mut t = NullTransport::new(10.0);
        let policy = RecoveryPolicy {
            timeout: 10.0,
            heartbeat_interval: f64::INFINITY,
            max_reissues: 0,
        };
        let mut e = MasterEngine::new(EngineConfig::shared_pool_async(2, 4, policy));
        e.seed(&mut t, &NoopRecorder);
        // Eval 0 misses its deadline with no reissues allowed: abandoned.
        t.now += 10.0;
        let (id, w, bits) = e.expired_deadlines(t.now)[0];
        assert_eq!(id, 0);
        e.handle(
            Event::DeadlineFired {
                eval_id: id,
                worker: w,
                deadline_bits: bits,
                at: t.now,
            },
            &mut t,
            &NoopRecorder,
        );
        assert_eq!(e.abandoned(), 1);
        // Its late result is not a duplicate of anything consumed.
        e.handle(arrival(0, 0, 11.0), &mut t, &NoopRecorder);
        // Neither is a result for an id not issued yet (ids 0 and 1 are).
        e.handle(arrival(1, 2, 11.0), &mut t, &NoopRecorder);
        e.handle(arrival(1, u64::MAX, 11.0), &mut t, &NoopRecorder);
        assert_eq!(e.completed(), 0);
        assert_eq!(e.log().duplicates_suppressed, 0);
        let unknown: Vec<_> = t
            .calls
            .iter()
            .filter(|c| c.starts_with("unknown"))
            .collect();
        assert_eq!(
            unknown,
            [
                "unknown 0 0",
                "unknown 1 2",
                &format!("unknown 1 {}", u64::MAX)
            ]
        );
        // Eval 1 is still in flight and still consumable.
        e.handle(arrival(1, 1, 12.0), &mut t, &NoopRecorder);
        assert_eq!(e.completed(), 1);
    }

    #[test]
    fn second_copy_of_a_reissued_eval_is_a_duplicate() {
        let mut t = NullTransport::new(10.0);
        let policy = RecoveryPolicy {
            timeout: 10.0,
            heartbeat_interval: f64::INFINITY,
            max_reissues: 8,
        };
        let mut e = MasterEngine::new(EngineConfig::shared_pool_async(2, 4, policy));
        e.seed(&mut t, &NoopRecorder);
        t.now += 10.0;
        let (id, w, bits) = e.expired_deadlines(t.now)[0];
        e.handle(
            Event::DeadlineFired {
                eval_id: id,
                worker: w,
                deadline_bits: bits,
                at: t.now,
            },
            &mut t,
            &NoopRecorder,
        );
        assert_eq!(e.log().reissues, 1);
        // The straggling first copy wins the race, the reissue's copy
        // arrives after it: consumed once, absorbed once.
        e.handle(arrival(0, id, 10.5), &mut t, &NoopRecorder);
        e.handle(arrival(1, id, 10.6), &mut t, &NoopRecorder);
        assert_eq!(e.completed(), 1);
        assert_eq!(e.log().duplicates_suppressed, 1);
        assert_eq!(
            t.calls.iter().filter(|c| c.starts_with("consume")).count(),
            1
        );
        assert!(t.calls.iter().any(|c| c == &format!("dup 1 {id}")));
    }

    #[test]
    fn deadline_reissues_then_abandons_at_the_cap() {
        let mut t = NullTransport::new(10.0);
        let policy = RecoveryPolicy {
            timeout: 10.0,
            heartbeat_interval: f64::INFINITY,
            max_reissues: 2,
        };
        let mut e = MasterEngine::new(EngineConfig::shared_pool_async(1, 2, policy));
        e.seed(&mut t, &NoopRecorder);
        for round in 0..3 {
            t.now += 10.0;
            let expired = e.expired_deadlines(t.now + 0.5);
            assert_eq!(expired.len(), 1, "round {round}");
            let (id, w, bits) = expired[0];
            e.handle(
                Event::DeadlineFired {
                    eval_id: id,
                    worker: w,
                    deadline_bits: bits,
                    at: t.now,
                },
                &mut t,
                &NoopRecorder,
            );
        }
        // Two reissues allowed, third firing abandons.
        assert_eq!(e.log().reissues, 2);
        assert_eq!(e.abandoned(), 1);
        assert!(t.calls.iter().any(|c| c == "abandon 0"));
    }

    #[test]
    fn an_abandoned_evaluation_frees_its_live_worker() {
        let mut t = NullTransport::new(10.0);
        let policy = RecoveryPolicy {
            timeout: 10.0,
            heartbeat_interval: f64::INFINITY,
            max_reissues: 0,
        };
        let mut e = MasterEngine::new(EngineConfig::fault_tolerant_async(1, 2, policy));
        e.seed(&mut t, &NoopRecorder);
        t.now += 10.0;
        let (id, w, bits) = e.expired_deadlines(t.now)[0];
        e.handle(
            Event::DeadlineFired {
                eval_id: id,
                worker: w,
                deadline_bits: bits,
                at: t.now,
            },
            &mut t,
            &NoopRecorder,
        );
        assert_eq!(e.abandoned(), 1);
        assert_eq!(
            t.calls[t.calls.len() - 2..],
            ["abandon 0".to_string(), "dispatch 0 1 0".to_string()]
        );
        assert_eq!(e.outstanding_len(), 1);
    }

    #[test]
    fn a_heartbeat_abandons_at_the_cap_even_with_no_idle_worker() {
        // Worker 0 dies holding evaluation 0 while worker 1 is busy: the
        // sweep must abandon it at cap 0, not park it for a reissue
        // that would go out past the cap once worker 1 frees up.
        let mut t = NullTransport::new(10.0);
        let policy = RecoveryPolicy {
            timeout: 10.0,
            heartbeat_interval: 1.0,
            max_reissues: 0,
        };
        let mut e = MasterEngine::new(EngineConfig::fault_tolerant_async(2, 10, policy));
        e.seed(&mut t, &NoopRecorder);
        let died = Event::WorkerDied {
            worker: 0,
            at: 0.5,
            lost_eval: None,
        };
        e.handle(died, &mut t, &NoopRecorder);
        e.handle(Event::HeartbeatTick { at: 2.0 }, &mut t, &NoopRecorder);
        e.handle(arrival(1, 1, 2.5), &mut t, &NoopRecorder);
        assert_eq!(e.abandoned(), 1);
        assert_eq!(e.log().reissues, 0);
        assert_eq!(t.calls.last().map(String::as_str), Some("dispatch 1 2 0"));
    }

    #[test]
    fn stale_deadline_is_a_no_op() {
        let mut t = NullTransport::new(10.0);
        let policy = RecoveryPolicy {
            timeout: 10.0,
            heartbeat_interval: f64::INFINITY,
            max_reissues: 8,
        };
        let mut e = MasterEngine::new(EngineConfig::shared_pool_async(1, 2, policy));
        e.seed(&mut t, &NoopRecorder);
        t.now += 10.0;
        let (id, w, bits) = e.expired_deadlines(t.now + 0.5)[0];
        e.handle(
            Event::DeadlineFired {
                eval_id: id,
                worker: w,
                deadline_bits: bits,
                at: t.now,
            },
            &mut t,
            &NoopRecorder,
        );
        assert_eq!(e.log().reissues, 1);
        // Refiring the *old* deadline after the reissue moved it: no-op.
        e.handle(
            Event::DeadlineFired {
                eval_id: id,
                worker: w,
                deadline_bits: bits,
                at: t.now,
            },
            &mut t,
            &NoopRecorder,
        );
        assert_eq!(e.log().reissues, 1);
    }

    #[test]
    fn shared_pool_death_note_reissues_the_lost_eval() {
        let mut t = NullTransport::new(10.0);
        let policy = RecoveryPolicy {
            timeout: 10.0,
            heartbeat_interval: f64::INFINITY,
            max_reissues: 8,
        };
        let mut e = MasterEngine::new(EngineConfig::shared_pool_async(2, 4, policy));
        e.seed(&mut t, &NoopRecorder);
        e.handle(
            Event::WorkerDied {
                worker: 0,
                at: 1.0,
                lost_eval: Some(0),
            },
            &mut t,
            &NoopRecorder,
        );
        assert_eq!(e.log().deaths_detected, 1);
        assert_eq!(e.log().reissues, 1);
        assert_eq!(e.log().wasted_nfe, 1);
        // The reissued eval can still be consumed (any worker delivers).
        e.handle(arrival(1, 0, 2.0), &mut t, &NoopRecorder);
        assert_eq!(e.completed(), 1);
    }

    #[test]
    fn shared_pool_pipeline_flows_when_any_thread_delivers() {
        // On a shared pull queue the delivering thread is rarely the
        // notional assignee; consuming must still free the assignee's
        // dispatch slot or the pipeline stalls.
        let mut t = NullTransport::new(f64::INFINITY);
        let policy = RecoveryPolicy {
            timeout: f64::INFINITY,
            heartbeat_interval: f64::INFINITY,
            max_reissues: 8,
        };
        let mut e = MasterEngine::new(EngineConfig::shared_pool_async(2, 6, policy));
        e.seed(&mut t, &NoopRecorder);
        // Worker 1's thread delivers every result, including those
        // notionally assigned to worker 0.
        for id in 0..6 {
            e.handle(arrival(1, id, id as f64), &mut t, &NoopRecorder);
        }
        assert!(e.finished());
        assert_eq!(e.completed(), 6);
        assert_eq!(
            t.calls.iter().filter(|c| c.starts_with("dispatch")).count(),
            6
        );
    }

    #[test]
    fn budgeted_dispatch_parks_workers_once_covered() {
        let mut t = NullTransport::new(10.0);
        let policy = RecoveryPolicy {
            timeout: 10.0,
            heartbeat_interval: f64::INFINITY,
            max_reissues: 8,
        };
        let mut e = MasterEngine::new(EngineConfig::fault_tolerant_async(3, 4, policy));
        e.seed(&mut t, &NoopRecorder);
        // 3 outstanding; after one consume: completed 1 + outstanding 2 =
        // 3 < 4 → one fresh dispatch. After the second consume: 2 + 2 = 4
        // → park.
        e.handle(arrival(0, 0, 1.0), &mut t, &NoopRecorder);
        assert_eq!(e.outstanding_len(), 3);
        e.handle(arrival(1, 1, 1.0), &mut t, &NoopRecorder);
        assert_eq!(e.outstanding_len(), 2);
        let dispatches = t.calls.iter().filter(|c| c.starts_with("dispatch")).count();
        assert_eq!(dispatches, 4);
    }

    /// A transport that remembers what is out, for a script to deliver,
    /// duplicate or lose.
    struct ScriptTransport {
        now: f64,
        timeout: f64,
        /// `(worker, eval_id)` of every copy in flight.
        sent: Vec<(usize, u64)>,
    }

    impl Clock for ScriptTransport {
        fn now(&self) -> f64 {
            self.now
        }
    }

    impl Transport for ScriptTransport {
        fn dispatch(
            &mut self,
            worker: usize,
            eval_id: u64,
            _: u32,
            _: u64,
            _: &mut FaultLog,
        ) -> f64 {
            self.sent.push((worker, eval_id));
            self.now + self.timeout
        }
        fn consume(&mut self, _: usize, _: u64, _: f64) -> f64 {
            self.now
        }
        fn absorb_duplicate(&mut self, _: usize, _: u64, _: f64) -> f64 {
            self.now
        }
        fn ping(&mut self, _: usize) -> (f64, f64) {
            (self.now, self.now + 0.001)
        }
        fn rearm_heartbeat(&mut self, _: f64) {}
        fn abandon(&mut self, _: u64) {}
    }

    /// FNV-1a over the bytes of `text`, folded into `h`.
    fn fold_text(h: u64, text: &str) -> u64 {
        text.bytes().fold(h, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// A seeded script of deliveries (in any order), duplicates, lost
    /// messages, deadline sweeps, deaths and heartbeats against the
    /// fault-tolerant engine. The digests below were first recorded with
    /// `outstanding` a `BTreeMap<u64, Outstanding>` (`a7e3668`): the engine
    /// must pass through the same states and emit the same commands whatever
    /// holds its outstanding set. They were re-recorded when an abandon at the
    /// cap began handing its live worker the next id: the transcript up to
    /// the first `Abandon` (command 1 496) is unchanged. They were re-recorded
    /// again when dead workers stopped coming back: events 0–82 and commands
    /// 0–150 are unchanged; event 83 and command 151 are where a dead worker
    /// used to rejoin.
    #[test]
    fn scripted_fault_tolerant_run_reproduces_the_recorded_states_and_transcript() {
        let policy = RecoveryPolicy {
            timeout: 1.0,
            heartbeat_interval: 2.5,
            max_reissues: 1,
        };
        let mut e = MasterEngine::new(EngineConfig::fault_tolerant_async(8, 2_000, policy));
        let mut t = ScriptTransport {
            now: 0.0,
            timeout: policy.timeout,
            sent: Vec::new(),
        };
        let ring = FlightRecorder::new(1 << 14);
        let rec = WithFlight::new(&NoopRecorder, &ring);
        e.seed(&mut t, &rec);
        let mut lcg = 0x2013u64;
        let mut draw = move |n: usize| {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (lcg >> 33) as usize % n
        };
        let mut states = fold_text(0xCBF2_9CE4_8422_2325, &e.state_digest().to_string());
        let mut up = (0..8).collect::<Vec<usize>>();
        // Abandoned evaluations count against the budget, so the script is
        // what ends: the run is not expected to finish.
        for _ in 0..6_000 {
            t.now += 0.01 + draw(100) as f64 * 1e-3;
            let at = t.now;
            let mut events = Vec::new();
            match draw(32) {
                // A result message is lost.
                0 | 1 if !t.sent.is_empty() => drop(t.sent.swap_remove(draw(t.sent.len()))),
                // A result message arrives and stays in flight: its second
                // copy comes later.
                2 | 3 if !t.sent.is_empty() => {
                    let (worker, eval_id) = t.sent[draw(t.sent.len())];
                    events.push(arrival(worker, eval_id, at));
                }
                // A worker dies for good, taking what it was sent with it.
                4 if up.len() > 2 => {
                    let worker = up.swap_remove(draw(up.len()));
                    t.sent.retain(|&(w, _)| w != worker);
                    // A coin whose side no longer matters, drawn so the
                    // script's stream stays the one first recorded.
                    draw(2);
                    events.push(Event::WorkerDied {
                        worker,
                        at,
                        lost_eval: None,
                    });
                }
                6 => events.push(Event::HeartbeatTick { at }),
                7..=10 => {
                    for (eval_id, worker, deadline_bits) in e.expired_deadlines(at) {
                        events.push(Event::DeadlineFired {
                            eval_id,
                            worker,
                            deadline_bits,
                            at,
                        });
                    }
                }
                _ if !t.sent.is_empty() => {
                    let (worker, eval_id) = t.sent.swap_remove(draw(t.sent.len()));
                    events.push(arrival(worker, eval_id, at));
                }
                _ => {}
            }
            for event in events {
                e.handle(event, &mut t, &rec);
                states = fold_text(states, &e.state_digest().to_string());
            }
        }
        let commands = commands(&ring);
        let count = |kind: fn(&Command) -> bool| commands.iter().filter(|c| kind(c)).count();
        // The script reaches every command the engine can emit.
        assert!(count(|c| matches!(c, Command::Consume { .. })) > 300);
        assert!(count(|c| matches!(c, Command::SuppressDuplicate { .. })) > 20);
        assert!(count(|c| matches!(c, Command::Ping { .. })) > 20);
        assert!(count(|c| matches!(c, Command::RetireWorker { .. })) > 2);
        assert!(count(|c| matches!(c, Command::Abandon { .. })) > 0);
        assert!(count(|c| matches!(c, Command::RearmHeartbeat)) > 2);
        let transcript = commands.iter().fold(0xCBF2_9CE4_8422_2325, |h, c| {
            fold_text(h, &format!("{c:?}"))
        });
        assert_eq!(
            (e.state_digest(), states, transcript, commands.len()),
            (
                16_334_386_276_406_256_541,
                11_084_779_480_034_411_921,
                10_902_917_210_564_062_825,
                4_606
            )
        );
    }

    /// Worker 0 never answers evaluation 0 while worker 1 keeps cycling:
    /// what the outstanding window costs under each deadline policy.
    #[test]
    fn a_hung_evaluation_grows_the_window_only_while_nothing_resolves_it() {
        let cycle = |e: &mut MasterEngine, t: &mut NullTransport, rounds: u64| {
            for _ in 0..rounds {
                let id = e.current_eval[1].expect("worker 1 is never idle");
                t.now += 0.01;
                e.handle(arrival(1, id, t.now), t, &NoopRecorder);
            }
        };

        // No deadline: nothing ever resolves evaluation 0, so the window
        // spans every id issued since — one slot each — while two are held.
        let mut t = NullTransport::new(f64::INFINITY);
        let mut e = MasterEngine::new(EngineConfig::fault_free_async(2, 10_000));
        e.seed(&mut t, &NoopRecorder);
        cycle(&mut e, &mut t, 500);
        assert_eq!((e.outstanding.base(), e.outstanding_len()), (0, 2));
        assert_eq!(e.outstanding.span(), 502);

        // A finite deadline: evaluation 0 is reissued at each expiry and
        // abandoned at the cap, and the window closes up behind it.
        let policy = RecoveryPolicy {
            timeout: 1.0,
            heartbeat_interval: f64::INFINITY,
            max_reissues: 2,
        };
        let mut t = NullTransport::new(policy.timeout);
        let mut e = MasterEngine::new(EngineConfig::fault_tolerant_async(2, 10_000, policy));
        e.seed(&mut t, &NoopRecorder);
        let mut widest = 0;
        for _ in 0..=policy.max_reissues {
            cycle(&mut e, &mut t, 110);
            widest = widest.max(e.outstanding.span());
            let hung: Vec<_> = e
                .expired_deadlines(t.now)
                .into_iter()
                .filter(|&(id, ..)| id == 0)
                .collect();
            assert_eq!(hung.len(), 1);
            let (eval_id, worker, deadline_bits) = hung[0];
            let fired = Event::DeadlineFired {
                eval_id,
                worker,
                deadline_bits,
                at: t.now,
            };
            e.handle(fired, &mut t, &NoopRecorder);
        }
        assert_eq!(e.abandoned(), 1);
        // It held the window open for three deadlines' worth of ids, no
        // more; worker 0, freed by the abandon, holds the next id.
        assert_eq!(widest, 332);
        assert_eq!((e.outstanding.base(), e.outstanding.span()), (331, 2));
        assert_eq!(e.current_eval[0], Some(332));
    }

    #[test]
    fn engine_hooks_feed_the_recorder() {
        let rec = InMemoryRecorder::new();
        let mut t = NullTransport::new(10.0);
        let policy = RecoveryPolicy {
            timeout: 10.0,
            heartbeat_interval: f64::INFINITY,
            max_reissues: 8,
        };
        let mut e = MasterEngine::new(EngineConfig::shared_pool_async(2, 3, policy));
        e.seed(&mut t, &rec);
        e.handle(arrival(0, 0, 1.0), &mut t, &rec);
        e.handle(arrival(0, 0, 1.0), &mut t, &rec); // duplicate
        t.now += 20.0;
        let (id, w, bits) = e.expired_deadlines(t.now)[0];
        e.handle(
            Event::DeadlineFired {
                eval_id: id,
                worker: w,
                deadline_bits: bits,
                at: t.now,
            },
            &mut t,
            &rec,
        );
        let snap = rec.snapshot();
        assert_eq!(snap.counters["engine.events.result_arrived"], 2);
        assert_eq!(snap.counters["engine.events.deadline_fired"], 1);
        assert_eq!(snap.counters["engine.commands.suppress_duplicate"], 1);
        assert_eq!(snap.counters["engine.commands.ping"], 1);
        assert_eq!(snap.counters["engine.reissues"], 1);
        // Seed dispatched 2, the consume refilled 1, the reissue re-sent 1.
        assert_eq!(snap.counters["engine.commands.dispatch"], 4);
        // The consumed result's deadline had 9 seconds of slack left.
        assert_eq!(snap.histograms["engine.deadline_slack_seconds"].count(), 1);
        assert_eq!(snap.histograms["engine.deadline_slack_seconds"].max(), 9.0);
        assert!(snap.gauges.contains_key("engine.outstanding"));
    }

    #[test]
    fn recorder_choice_does_not_change_decisions() {
        // Same event stream through a noop-observed and an in-memory-
        // observed engine: identical transport call sequences.
        let run = |rec: &dyn Recorder| {
            let mut t = NullTransport::new(f64::INFINITY);
            let mut e = MasterEngine::new(EngineConfig::fault_free_async(2, 4));
            e.seed(&mut t, rec);
            for (w, id) in [(0, 0), (1, 1), (0, 2), (1, 3)] {
                e.handle(arrival(w, id, 1.0 + id as f64), &mut t, rec);
            }
            (t.calls, e.completed())
        };
        let noop = run(&NoopRecorder);
        let mem = run(&InMemoryRecorder::new());
        assert_eq!(noop, mem);
    }
}
