//! One-process ratio tests of what one `MasterEngine::handle` costs, timed
//! in the same process so the host's speed cancels:
//!
//! - with 1 023 evaluations outstanding against with 2. The engine's
//!   bookkeeping is meant to be O(1) in the number outstanding; an ordered
//!   map keyed by evaluation id in its place reads 1.6 here.
//! - under the fault-tolerant protocol while no deadline fires against the
//!   fault-free protocol, both at 1 023 outstanding. Recovery is meant to
//!   cost nothing until something fails; a sweep of the outstanding
//!   deadlines on every arrival in its place reads far above 1.1 here.
//!
//! Timing needs an optimised build and a quiet moment, so the tests are
//! ignored by default; `ci.sh` runs them with `cargo test --release -p
//! borg-protocol --test handle_ratio -- --ignored`.

use borg_desim::fault::FaultLog;
use borg_obs::NoopRecorder;
use borg_protocol::{Clock, EngineConfig, Event, MasterEngine, RecoveryPolicy, Transport};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Evaluations per timed run.
const EVENTS: u64 = 400_000;

/// A transport that does nothing but remember what each worker holds and
/// hand out deadlines `timeout` seconds after each dispatch.
struct NullTransport {
    now: f64,
    timeout: f64,
    holding: Vec<Option<u64>>,
}

impl Clock for NullTransport {
    fn now(&self) -> f64 {
        self.now
    }
}

impl Transport for NullTransport {
    fn dispatch(&mut self, worker: usize, eval_id: u64, _: u32, _: u64, _: &mut FaultLog) -> f64 {
        self.holding[worker] = Some(eval_id);
        self.now + self.timeout
    }
    fn consume(&mut self, _: usize, _: u64, ready_at: f64) -> f64 {
        ready_at
    }
    fn absorb_duplicate(&mut self, _: usize, _: u64, ready_at: f64) -> f64 {
        ready_at
    }
    fn ping(&mut self, _: usize) -> (f64, f64) {
        (self.now, self.now)
    }
    fn rearm_heartbeat(&mut self, _: f64) {}
    fn abandon(&mut self, _: u64) {}
}

/// Runs the protocol `config` describes to its budget, every deadline
/// `timeout` seconds after its dispatch, results arriving a microsecond
/// apart in a fixed scattered worker order (so ids leave the outstanding
/// set out of order, as they do under a varying `T_F`).
fn drive(config: EngineConfig, timeout: f64) -> Duration {
    let workers = config.workers;
    let mut engine = MasterEngine::new(config);
    let mut t = NullTransport {
        now: 0.0,
        timeout,
        holding: vec![None; workers],
    };
    engine.seed(&mut t, &NoopRecorder);
    let start = Instant::now();
    // 7 is coprime to both pool sizes: every worker takes its turn.
    let mut worker = 0;
    while !engine.finished() {
        worker = (worker + 7) % workers;
        let eval_id = t.holding[worker].take().expect("every worker holds work");
        t.now += 1e-6;
        let event = Event::ResultArrived {
            worker,
            eval_id,
            at: t.now,
        };
        engine.handle(black_box(event), &mut t, &NoopRecorder);
    }
    black_box(engine.completed());
    start.elapsed()
}

#[test]
#[ignore = "wall-clock ratio; ci.sh runs it in release"]
fn handle_costs_the_same_with_1023_outstanding_as_with_2() {
    // Alternated, best of seven each: a slow stretch of the host hits both.
    let (mut few, mut many) = (Duration::MAX, Duration::MAX);
    for _ in 0..7 {
        few = few.min(drive(
            EngineConfig::fault_free_async(2, EVENTS),
            f64::INFINITY,
        ));
        many = many.min(drive(
            EngineConfig::fault_free_async(1_023, EVENTS),
            f64::INFINITY,
        ));
    }
    let per_event = |d: Duration| d.as_secs_f64() * 1e9 / EVENTS as f64;
    let ratio = many.as_secs_f64() / few.as_secs_f64();
    println!(
        "handle: {:.1} ns at W = 2, {:.1} ns at W = 1023, ratio {ratio:.2}",
        per_event(few),
        per_event(many)
    );
    assert!(
        ratio <= 1.3,
        "handle at W = 1023 costs {ratio:.2}x what it costs at W = 2"
    );
}

#[test]
#[ignore = "wall-clock ratio; ci.sh runs it in release"]
fn recovery_costs_nothing_while_no_deadline_fires() {
    // Deadlines a second out, results a microsecond apart: an evaluation
    // is outstanding for about 1 ms, so no deadline ever fires.
    let quiet = RecoveryPolicy::from_expected_eval_time(0.25, 4.0);
    let (mut bare, mut guarded) = (Duration::MAX, Duration::MAX);
    // Alternated, best of seven each, the order swapped every round so a
    // change of the host's speed mid-round favours neither side.
    for round in 0..7 {
        for side in [round % 2, 1 - round % 2] {
            if side == 0 {
                bare = bare.min(drive(
                    EngineConfig::fault_free_async(1_023, EVENTS),
                    f64::INFINITY,
                ));
            } else {
                guarded = guarded.min(drive(
                    EngineConfig::fault_tolerant_async(1_023, EVENTS, quiet),
                    quiet.timeout,
                ));
            }
        }
    }
    let per_event = |d: Duration| d.as_secs_f64() * 1e9 / EVENTS as f64;
    let ratio = guarded.as_secs_f64() / bare.as_secs_f64();
    println!(
        "handle at W = 1023: {:.1} ns fault-free, {:.1} ns fault-tolerant and quiet, \
         ratio {ratio:.2}",
        per_event(bare),
        per_event(guarded)
    );
    assert!(
        ratio <= 1.1,
        "quiet recovery costs {ratio:.2}x the fault-free protocol per event"
    );
}
