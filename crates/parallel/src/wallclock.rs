//! The one wall-clock master: `borg_protocol::MasterEngine` driven in real
//! time by whichever thread brings the news.
//!
//! Worker threads over in-memory pipes ([`crate::threads`]) and worker
//! processes over sockets (`borg_net::serve`) both run this loop. One
//! master interaction (result in, archive update, next dispatch out) runs
//! on the thread that holds the result, under the one lock around
//! [`Master`]. The protocol engine decides everything (deadline reissue,
//! duplicate suppression by eval id, worker retirement); this module only
//! translates. The thread that built the master keeps the clock
//! ([`keep_clock`]): it sweeps expired deadlines and silent peers every
//! tick and is unparked once when the run ends. A worker's death is
//! reported by whoever observes it — a connection thread at EOF, a worker
//! thread on its own way out, the tick for a peer gone silent — through
//! the one [`Master::on_death`]. What differs between the executors sits
//! behind [`Link`]: how a work item reaches a worker, what arrives with a
//! result besides its numbers, which counters and trace edges record it.

use crate::master_core::MasterCore;
use borg_core::algorithm::{BorgConfig, BorgEngine};
use borg_core::problem::Problem;
use borg_desim::fault::{FaultKind, FaultLog};
use borg_obs::{Activity, Actor, Recorder};
use borg_protocol::{Clock, EngineConfig, Event, MasterEngine, RecoveryPolicy, Transport};
use parking_lot::{Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Reissue cap before an evaluation is abandoned and the run fails.
const MAX_REISSUES: u32 = 32;

/// The physical half of the master: one route per worker. Hides the
/// message format from [`Master`] and lets a test substitute a fake.
pub trait Link {
    /// What arrives with a result besides objectives and constraints.
    type Receipt;

    /// Sends one work item down `target`'s route at master time `now`;
    /// `seq` counts the items sent that way. `false` if it could not be
    /// sent — the master then severs the route.
    fn send_work(
        &mut self,
        target: usize,
        eval_id: u64,
        attempt: u32,
        seq: u64,
        variables: &[f64],
        now: f64,
    ) -> bool;

    /// Whether `target`'s route still takes work.
    fn is_up(&self, target: usize) -> bool;

    /// Closes `target`'s route for good.
    fn sever(&mut self, target: usize);

    /// The result `worker` delivered for `eval_id` (sent at
    /// `dispatched_at`) was consumed at `now`.
    fn consumed(
        &mut self,
        _worker: usize,
        _eval_id: u64,
        _receipt: &Self::Receipt,
        _dispatched_at: f64,
        _now: f64,
    ) {
    }

    /// A duplicate or stale result was absorbed.
    fn duplicate(&mut self) {}

    /// `worker` was declared dead at `at`; `lost_eval` is the last
    /// evaluation sent its way that was still owed a result.
    fn died(&mut self, _worker: usize, _lost_eval: Option<u64>, _kind: FaultKind, _at: f64) {}
}

/// Why a run ended without completing its budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Every worker died (or the run was stopped) with evaluations owed.
    PoolLost {
        /// Evaluations the engine had consumed.
        completed: u64,
        /// Dispatched evaluations whose results will never arrive.
        in_flight: usize,
    },
    /// An evaluation exhausted its reissues.
    ReissueLimit {
        /// The evaluation that could not be completed.
        eval_id: u64,
    },
    /// A result the master cannot use: of the wrong shape, or with no
    /// candidate to pair it with.
    BadResult {
        /// The evaluation the result claims to answer.
        eval_id: u64,
    },
}

/// The shape of a run, common to both executors.
#[derive(Debug, Clone, Copy)]
pub struct MasterConfig {
    /// Workers, one [`Link`] route each.
    pub workers: usize,
    /// Evaluation budget.
    pub max_nfe: u64,
    /// Seed of the Borg engine.
    pub engine_seed: u64,
    /// Seconds before an outstanding evaluation is reissued, if ever.
    pub reissue_timeout: Option<f64>,
    /// Seconds of silence before a worker is declared hung (`INFINITY`: never).
    pub heartbeat_timeout: f64,
}

/// What a completed run hands back.
pub struct Outcome<L> {
    /// Final engine state.
    pub engine: BorgEngine,
    /// Seconds from the master's construction to the last consume.
    pub elapsed: f64,
    /// The recovery ledger, closed at `elapsed`.
    pub fault_log: FaultLog,
    /// The link, with whatever it collected.
    pub link: L,
}

/// What the protocol engine's commands act on.
struct Exec<'a, L, R: ?Sized> {
    start: Instant,
    core: MasterCore,
    link: L,
    /// The evaluations sent down each route, oldest first, each reported
    /// lost when the route's worker dies unless consumed or abandoned by
    /// then. A reissue can join one a route already carries; an answer
    /// down a route, consumed or not, takes its id off that route.
    carried: Vec<Vec<u64>>,
    dispatch_seq: Vec<u64>,
    cfg: MasterConfig,
    /// How the run ended — its end time or what stopped it. Set once;
    /// every later result or tick finds it and stands down.
    verdict: Option<Result<f64, Failure>>,
    /// The thread keeping the clock, unparked when the verdict is set.
    caller: Thread,
    rec: &'a R,
}

impl<L, R: ?Sized> Exec<'_, L, R> {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Ends the run, once, and wakes the clock.
    fn end(&mut self, verdict: Result<f64, Failure>) -> bool {
        self.verdict.get_or_insert(verdict);
        self.caller.unpark();
        true
    }
}

/// A result as its carrier lends it to the master: objectives,
/// constraints, receipt.
type Arrival<'r, T> = (&'r [f64], &'r [f64], T);

/// The engine's executor half for the length of one event: the state the
/// commands act on plus the result the event is about, if any.
struct Interaction<'x, 'a, L: Link, R: ?Sized> {
    exec: &'x mut Exec<'a, L, R>,
    result: Option<Arrival<'x, L::Receipt>>,
}

impl<L: Link, R: ?Sized> Clock for Interaction<'_, '_, L, R> {
    fn now(&self) -> f64 {
        self.exec.now()
    }
}

impl<L: Link, R: ?Sized> Transport for Interaction<'_, '_, L, R> {
    fn dispatch(
        &mut self,
        worker: usize,
        eval_id: u64,
        attempt: u32,
        _seq: u64,
        _log: &mut FaultLog,
    ) -> f64 {
        let x = &mut *self.exec;
        let now = x.now();
        // Unsent or not, the evaluation stays out: a death report or the
        // deadline brings it back.
        let variables = if attempt == 0 {
            x.core.produce(eval_id, now)
        } else if let Some(variables) = x.core.resend(eval_id, now) {
            variables
        } else {
            // Consumed or abandoned since: nothing to resend.
            return f64::INFINITY;
        };
        // The shared-pool discipline treats dispatch indices as notional
        // (a dead worker's lost evaluation is reissued under the dead
        // worker's own index), so the physical route is ours to choose:
        // the named worker's if it is up, else the first that is.
        let target = if x.link.is_up(worker) {
            Some(worker)
        } else {
            (0..x.carried.len()).find(|&w| x.link.is_up(w))
        };
        if let Some(target) = target {
            let seq = x.dispatch_seq[target];
            x.dispatch_seq[target] += 1;
            // Tracked on the route that physically carries it, so a death
            // there reports it lost — also when the send is refused, which
            // only says the death is yet to be reported.
            if !x.carried[target].contains(&eval_id) {
                x.carried[target].push(eval_id);
            }
            if !x
                .link
                .send_work(target, eval_id, attempt, seq, variables, now)
            {
                x.link.sever(target);
            }
        }
        x.cfg.reissue_timeout.map_or(f64::INFINITY, |t| now + t)
    }

    fn consume(&mut self, worker: usize, eval_id: u64, _ready_at: f64) -> f64 {
        let x = &mut *self.exec;
        let result = self.result.take();
        let consumed = result.and_then(|(objectives, constraints, receipt)| {
            Some((x.core.consume(eval_id, objectives, constraints)?, receipt))
        });
        let Some((dispatched_at, receipt)) = consumed else {
            x.end(Err(Failure::BadResult { eval_id }));
            return x.now();
        };
        x.carried[worker].retain(|&id| id != eval_id);
        let now = x.now();
        x.link
            .consumed(worker, eval_id, &receipt, dispatched_at, now);
        now
    }

    fn absorb_duplicate(&mut self, worker: usize, eval_id: u64, _ready_at: f64) -> f64 {
        self.exec.carried[worker].retain(|&id| id != eval_id);
        self.exec.link.duplicate();
        self.exec.now()
    }

    fn ping(&mut self, _worker: usize) -> (f64, f64) {
        // Deaths are reported by whoever observes them; there is no probe.
        let now = self.exec.now();
        (now, now)
    }

    fn rearm_heartbeat(&mut self, _at: f64) {}

    fn abandon(&mut self, eval_id: u64) {
        self.exec.core.abandon(eval_id);
        self.exec.end(Err(Failure::ReissueLimit { eval_id }));
    }

    fn unknown_result(&mut self, worker: usize, eval_id: u64) {
        // A result for an id the engine no longer tracks (a late copy
        // after abandonment): absorb and count, don't fail the run.
        self.exec.carried[worker].retain(|&id| id != eval_id);
        self.exec.link.duplicate();
    }
}

/// Everything one master interaction touches, behind the one master lock:
/// result carriers take it per result, the clock per tick.
pub struct Master<'a, L: Link, R: Recorder + ?Sized> {
    proto: MasterEngine,
    exec: Exec<'a, L, R>,
    alive: Vec<bool>,
    last_seen: Vec<f64>,
    /// Seconds the master was held by results so far.
    busy: f64,
}

impl<'a, L: Link, R: Recorder + ?Sized> Master<'a, L, R> {
    /// Builds the master and sends every worker its first evaluation.
    /// Call it on the thread that will [`keep_clock`].
    pub fn new<P: Problem + ?Sized>(
        problem: &P,
        borg: BorgConfig,
        cfg: &MasterConfig,
        link: L,
        rec: &'a R,
    ) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.max_nfe >= 1, "need at least one evaluation");
        let proto = MasterEngine::new(EngineConfig::shared_pool_async(
            cfg.workers,
            cfg.max_nfe,
            RecoveryPolicy {
                timeout: cfg.reissue_timeout.unwrap_or(f64::INFINITY),
                heartbeat_interval: f64::INFINITY,
                max_reissues: MAX_REISSUES,
            },
        ));
        let mut master = Master {
            proto,
            exec: Exec {
                start: Instant::now(),
                core: MasterCore::new(problem, borg, cfg.engine_seed),
                link,
                carried: vec![Vec::new(); cfg.workers],
                dispatch_seq: vec![0; cfg.workers],
                cfg: *cfg,
                verdict: None,
                caller: std::thread::current(),
                rec,
            },
            alive: vec![true; cfg.workers],
            last_seen: vec![0.0; cfg.workers],
            busy: 0.0,
        };
        let mut seeding = Interaction {
            exec: &mut master.exec,
            result: None,
        };
        master.proto.seed(&mut seeding, rec);
        master.settle();
        master
    }

    /// The instant the run's clock counts seconds from.
    pub(crate) fn epoch(&self) -> Instant {
        self.exec.start
    }

    /// The link, for traffic the protocol does not see (heartbeat echoes,
    /// teardown).
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.exec.link
    }

    /// Whether the run is over. Called after every engine event: a
    /// failure met while performing it or a completed budget ends it.
    fn settle(&mut self) -> bool {
        let over = self.exec.verdict.is_some();
        over || (self.proto.finished() && self.exec.end(Ok(self.exec.now())))
    }

    fn handle(&mut self, event: Event, result: Option<Arrival<'_, L::Receipt>>) -> bool {
        let rec = self.exec.rec;
        let mut interaction = Interaction {
            exec: &mut self.exec,
            result,
        };
        self.proto.handle(event, &mut interaction, rec);
        self.settle()
    }

    fn pool_lost(&self) -> Failure {
        Failure::PoolLost {
            completed: self.exec.core.engine().nfe(),
            in_flight: self.proto.outstanding_len(),
        }
    }

    /// One master interaction: `worker` delivered a result for `eval_id`.
    /// The hold is one `Algorithm` span, the measured `T_A`, on every link.
    /// Returns whether the run is over.
    pub fn on_result(
        &mut self,
        worker: usize,
        eval_id: u64,
        objectives: &[f64],
        constraints: &[f64],
        receipt: L::Receipt,
    ) -> bool {
        // A result after the end of the run, or from a worker already
        // declared dead (stale by definition: its eval was reissued).
        if self.exec.verdict.is_some() || !self.alive[worker] {
            return self.exec.verdict.is_some();
        }
        // It may come from outside the process: its shape is checked
        // before a value is used.
        if !self.exec.core.fits(objectives, constraints) {
            return self.exec.end(Err(Failure::BadResult { eval_id }));
        }
        let at = self.exec.now();
        self.last_seen[worker] = at;
        let over = self.handle(
            Event::ResultArrived {
                worker,
                eval_id,
                at,
            },
            Some((objectives, constraints, receipt)),
        );
        let released = self.exec.now();
        self.busy += released - at;
        self.exec
            .rec
            .span(Actor::Master, Activity::Algorithm, at, released);
        over
    }

    /// `worker` gave a sign of life. Returns the master's time, or `None`
    /// when the run is over.
    pub fn on_beat(&mut self, worker: usize) -> Option<f64> {
        let now = self.exec.now();
        self.last_seen[worker] = now;
        self.exec.verdict.is_none().then_some(now)
    }

    /// Records a physically observed death in the ledger and lets the
    /// engine's recovery machinery act on it: one `WorkerDied` per
    /// evaluation the route still owed, so the engine retires the worker
    /// once and reissues each at once. Returns whether the run is over.
    pub fn on_death(&mut self, worker: usize, kind: FaultKind) -> bool {
        if self.exec.verdict.is_some() {
            return true;
        }
        if !self.alive[worker] {
            return false;
        }
        self.alive[worker] = false;
        let at = self.exec.now();
        let mut lost = std::mem::take(&mut self.exec.carried[worker]);
        lost.retain(|&id| self.exec.core.variables(id).is_some());
        let last = lost.last().copied();
        self.proto
            .log_mut()
            .inject(kind, worker, last.unwrap_or(0), at);
        self.exec.link.sever(worker);
        self.exec.link.died(worker, last, kind, at);
        let lost_evals: Vec<Option<u64>> = if lost.is_empty() {
            vec![None]
        } else {
            lost.into_iter().map(Some).collect()
        };
        for lost_eval in lost_evals {
            let event = Event::WorkerDied {
                worker,
                at,
                lost_eval,
            };
            if self.handle(event, None) {
                return true;
            }
        }
        if self.alive.iter().any(|a| *a) {
            return false;
        }
        let lost = self.pool_lost();
        self.exec.end(Err(lost))
    }

    /// The clock duties: expired deadlines, then silent peers.
    pub(crate) fn on_tick(&mut self) -> bool {
        if self.exec.verdict.is_some() {
            return true;
        }
        let now = self.exec.now();
        for (eval_id, worker, deadline_bits) in self.proto.expired_deadlines(now) {
            let event = Event::DeadlineFired {
                eval_id,
                worker,
                deadline_bits,
                at: now,
            };
            if self.handle(event, None) {
                return true;
            }
        }
        let patience = self.exec.cfg.heartbeat_timeout;
        if patience.is_finite() {
            for worker in 0..self.alive.len() {
                if now - self.last_seen[worker] > patience && self.on_death(worker, FaultKind::Hang)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Closes the books after [`keep_clock`] returned: the ledger, the
    /// master-occupancy gauges (Eq. 3's measured counterpart: the share of
    /// the run the master was held by results) and the archive's probe
    /// count.
    ///
    /// # Errors
    /// The [`Failure`] that ended the run short of its budget.
    pub fn finish(mut self) -> Result<Outcome<L>, Failure> {
        let lost = self.pool_lost();
        let elapsed = self.exec.verdict.take().unwrap_or(Err(lost))?;
        let (rec, busy) = (self.exec.rec, self.busy);
        rec.gauge("master.busy_seconds", busy);
        rec.gauge("master.utilization", busy / elapsed.max(f64::MIN_POSITIVE));
        let engine = self.exec.core.into_engine();
        rec.counter("archive.box_probes", engine.archive().box_probes());
        let mut fault_log = self.proto.into_log();
        fault_log.finalize(elapsed);
        Ok(Outcome {
            engine,
            elapsed,
            fault_log,
            link: self.exec.link,
        })
    }
}

/// Takes the master lock for one interaction. The holder is out again
/// within a few microseconds (one engine event and one small send), so a
/// contending thread polls for about that long before it blocks: going to
/// sleep and being woken costs more than the wait, and with every carrier
/// doing so the lock turns into a convoy. Measured at PR 15 over sockets
/// with in-process workers on two CPUs (thousand evaluations per second,
/// plain `lock()` → polling first): P = 8: 64–65 → 69–82, P = 32: 66–67 →
/// 82–89; pinned to one CPU, where the holder cannot run while another
/// thread polls, nothing moves (150 → 151). The `wire-saturated` workload
/// of `benchmark/` and `threads_outrun_sockets_on_the_same_input`
/// (`crates/net/tests/serve_loopback.rs`) are what exercise this lock now.
pub fn lock_master<T>(master: &Mutex<T>) -> MutexGuard<'_, T> {
    for _ in 0..200 {
        if let Some(guard) = master.try_lock() {
            return guard;
        }
        std::hint::spin_loop();
    }
    master.lock()
}

/// Keeps the clock until the run ends: wakes every tick to sweep expired
/// deadlines and silent peers. Whoever sets the verdict unparks this
/// thread — the one that built the master — so the end is seen at once; a
/// spurious wake-up only ticks early.
pub fn keep_clock<L: Link, R: Recorder + ?Sized>(master: &Mutex<Master<'_, L, R>>) {
    // Fine enough to honour the deadline promptly, never busier than
    // 1 kHz, never sleepier than 10 Hz.
    let timeout = master.lock().exec.cfg.reissue_timeout;
    let tick = timeout.map_or(Duration::from_millis(50), |t| {
        Duration::from_secs_f64((t / 4.0).clamp(0.001, 0.1))
    });
    loop {
        std::thread::park_timeout(tick);
        if master.lock().on_tick() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    //! The shipped loop without sockets or threads: a scripted link that
    //! records sends (and can refuse them), the master driven directly.

    use super::*;
    use borg_obs::NoopRecorder;
    use borg_problems::dtlz::{Dtlz, DtlzVariant};

    #[derive(Default)]
    struct FakeLink {
        /// `(target, eval_id, attempt)` of every accepted send.
        sent: Vec<(usize, u64, u32)>,
        refuse: Vec<usize>,
        severed: Vec<usize>,
        consumed: u64,
        duplicates: u64,
        deaths: Vec<(usize, Option<u64>)>,
    }

    impl Link for FakeLink {
        type Receipt = ();

        fn send_work(
            &mut self,
            target: usize,
            eval_id: u64,
            attempt: u32,
            _seq: u64,
            _variables: &[f64],
            _now: f64,
        ) -> bool {
            let accepted = !self.refuse.contains(&target);
            if accepted {
                self.sent.push((target, eval_id, attempt));
            }
            accepted
        }

        fn is_up(&self, target: usize) -> bool {
            !self.severed.contains(&target)
        }

        fn sever(&mut self, target: usize) {
            self.severed.push(target);
        }

        fn consumed(&mut self, _: usize, _: u64, (): &(), _: f64, _: f64) {
            self.consumed += 1;
        }

        fn duplicate(&mut self) {
            self.duplicates += 1;
        }

        fn died(&mut self, worker: usize, lost_eval: Option<u64>, _: FaultKind, _: f64) {
            self.deaths.push((worker, lost_eval));
        }
    }

    const GOOD: (&[f64], &[f64]) = (&[0.5, 0.5], &[]);

    /// A two-objective master over `link`, its first `workers` evaluations
    /// (ids `0..workers`, one per route) already sent.
    fn master(
        workers: usize,
        max_nfe: u64,
        link: FakeLink,
    ) -> Master<'static, FakeLink, NoopRecorder> {
        let cfg = MasterConfig {
            workers,
            max_nfe,
            engine_seed: 7,
            reissue_timeout: None,
            heartbeat_timeout: f64::INFINITY,
        };
        Master::new(
            &Dtlz::new(DtlzVariant::Dtlz2, 2),
            BorgConfig::new(2, 0.05),
            &cfg,
            link,
            &NoopRecorder,
        )
    }

    #[test]
    fn a_run_over_the_fake_link_completes_its_budget() {
        let mut m = master(2, 3, FakeLink::default());
        assert_eq!(m.link_mut().sent, [(0, 0, 0), (1, 1, 0)]);
        assert!(!m.on_result(0, 0, GOOD.0, GOOD.1, ()));
        // The follow-up went back down the route that delivered.
        assert_eq!(m.link_mut().sent[2], (0, 2, 0));
        assert!(!m.on_result(1, 1, GOOD.0, GOOD.1, ()));
        assert!(m.on_result(0, 2, GOOD.0, GOOD.1, ()));
        let outcome = m.finish().expect("budget completed");
        assert_eq!(outcome.engine.nfe(), 3);
        assert_eq!((outcome.link.consumed, outcome.link.duplicates), (3, 0));
        assert!(outcome.fault_log.records.is_empty());
    }

    #[test]
    fn a_result_from_a_worker_declared_dead_is_dropped() {
        let mut m = master(2, 10, FakeLink::default());
        assert!(!m.on_death(0, FaultKind::Crash));
        let sends = m.link_mut().sent.len();
        // Worker 0's answer to the evaluation it was holding arrives after
        // all: the reissue already covers it, the engine must not hear.
        assert!(!m.on_result(0, 0, GOOD.0, GOOD.1, ()));
        assert_eq!(m.exec.core.engine().nfe(), 0);
        assert_eq!(m.link_mut().consumed + m.link_mut().duplicates, 0);
        assert_eq!(m.link_mut().sent.len(), sends);
    }

    #[test]
    fn a_result_after_the_verdict_stands_down() {
        let mut m = master(1, 1, FakeLink::default());
        assert!(m.on_result(0, 0, GOOD.0, GOOD.1, ()));
        // A straggling copy, a tick and a death all find the verdict.
        assert!(m.on_result(0, 0, GOOD.0, GOOD.1, ()));
        assert!(m.on_tick());
        assert!(m.on_death(0, FaultKind::Crash));
        let outcome = m.finish().expect("budget completed");
        assert_eq!((outcome.link.consumed, outcome.link.duplicates), (1, 0));
        assert!(outcome.link.deaths.is_empty());
    }

    #[test]
    fn a_result_delivered_twice_is_consumed_once() {
        let mut m = master(2, 10, FakeLink::default());
        assert!(!m.on_result(0, 0, GOOD.0, GOOD.1, ()));
        let sends = m.link_mut().sent.len();
        // The same answer again, down the same route: absorbed, not consumed.
        assert!(!m.on_result(0, 0, GOOD.0, GOOD.1, ()));
        assert_eq!(m.exec.core.engine().nfe(), 1);
        assert_eq!((m.link_mut().consumed, m.link_mut().duplicates), (1, 1));
        assert_eq!(m.link_mut().sent.len(), sends);
        assert_eq!(m.proto.log().duplicates_suppressed, 1);
        assert_eq!(m.proto.log().wasted_nfe, 1);
    }

    #[test]
    fn a_result_for_an_id_never_dispatched_is_absorbed() {
        let mut m = master(2, 3, FakeLink::default());
        assert!(!m.on_result(1, 99, GOOD.0, GOOD.1, ()));
        assert_eq!(m.exec.core.engine().nfe(), 0);
        assert_eq!((m.link_mut().consumed, m.link_mut().duplicates), (0, 1));
        assert_eq!(m.proto.log().duplicates_suppressed, 0);
        // The run goes on and completes its budget.
        assert!(!m.on_result(0, 0, GOOD.0, GOOD.1, ()));
        assert!(!m.on_result(1, 1, GOOD.0, GOOD.1, ()));
        assert!(m.on_result(0, 2, GOOD.0, GOOD.1, ()));
        let outcome = m.finish().expect("budget completed");
        assert_eq!(outcome.engine.nfe(), 3);
        assert_eq!((outcome.link.consumed, outcome.link.duplicates), (3, 1));
    }

    #[test]
    fn a_result_of_the_wrong_shape_ends_the_run() {
        let mut m = master(1, 10, FakeLink::default());
        // Three objectives for a two-objective problem.
        assert!(m.on_result(0, 0, &[0.1, 0.2, 0.3], &[], ()));
        assert_eq!(m.exec.core.engine().nfe(), 0);
        assert!(matches!(
            m.finish().err(),
            Some(Failure::BadResult { eval_id: 0 })
        ));
    }

    #[test]
    fn a_refused_send_severs_the_link_and_the_reissue_goes_elsewhere() {
        let refusing = FakeLink {
            refuse: vec![0],
            ..FakeLink::default()
        };
        let mut m = master(2, 10, refusing);
        // Only worker 1 got its seed; evaluation 0 stays out all the same.
        assert_eq!(m.link_mut().sent, [(1, 1, 0)]);
        assert_eq!(m.link_mut().severed, [0]);
        assert_eq!(m.proto.outstanding_len(), 2);
        assert!(m.exec.core.variables(0).is_some());
        // The death report names it lost; its reissue takes the live link.
        assert!(!m.on_death(0, FaultKind::Crash));
        assert_eq!(m.link_mut().deaths, [(0, Some(0))]);
        assert_eq!(m.link_mut().sent[1], (1, 0, 1));
        assert_eq!(m.proto.log().reissues, 1);
    }

    #[test]
    fn a_death_with_nothing_in_flight_reissues_nothing() {
        let mut m = master(2, 2, FakeLink::default());
        // Worker 0 delivers; the budget is covered by what worker 1 holds,
        // so no follow-up goes out and worker 0 is idle when it dies.
        assert!(!m.on_result(0, 0, GOOD.0, GOOD.1, ()));
        assert_eq!(m.link_mut().sent.len(), 2);
        assert!(!m.on_death(0, FaultKind::Crash));
        assert_eq!(m.link_mut().deaths, [(0, None)]);
        assert_eq!(m.link_mut().sent.len(), 2);
        assert_eq!(m.proto.log().reissues, 0);
        assert_eq!(m.proto.log().deaths_detected, 1);
    }

    #[test]
    fn a_death_reissues_every_evaluation_its_route_still_owes() {
        // No deadline: a loss the death report misses is never re-sent.
        let mut m = master(3, 5, FakeLink::default());
        assert!(!m.on_death(0, FaultKind::Crash));
        // Evaluation 0's reissue joins evaluation 1 on route 1.
        assert_eq!(m.link_mut().sent[3], (1, 0, 1));
        // Route 1 delivers its own evaluation and takes a follow-up.
        assert!(!m.on_result(1, 1, GOOD.0, GOOD.1, ()));
        assert_eq!(m.link_mut().sent[4], (1, 3, 0));
        // Route 1 dies owing evaluations 0 and 3: both go to route 2.
        assert!(!m.on_death(1, FaultKind::Crash));
        assert_eq!(m.link_mut().sent[5..], [(2, 0, 2), (2, 3, 1)]);
        assert_eq!(m.proto.log().reissues, 3);
        assert_eq!(m.proto.log().deaths_detected, 2);
        // Route 2 answers everything it was sent; the budget completes.
        let mut delivered = 0;
        while delivered < m.link_mut().sent.len() {
            let (target, eval_id, _) = m.link_mut().sent[delivered];
            delivered += 1;
            if target == 2 && m.on_result(2, eval_id, GOOD.0, GOOD.1, ()) {
                break;
            }
        }
        let outcome = m.finish().expect("budget completed");
        assert_eq!(outcome.engine.nfe(), 5);
    }

    #[test]
    fn losing_the_last_worker_reports_completed_and_in_flight() {
        let mut m = master(2, 10, FakeLink::default());
        assert!(!m.on_result(0, 0, GOOD.0, GOOD.1, ()));
        assert!(!m.on_death(0, FaultKind::Crash));
        assert!(m.on_death(1, FaultKind::Hang));
        // One consumed; evaluations 1 and 2 were out and stay owed.
        assert_eq!(
            m.finish().err(),
            Some(Failure::PoolLost {
                completed: 1,
                in_flight: 2
            })
        );
    }
}
