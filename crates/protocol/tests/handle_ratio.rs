//! One-process ratio test: what one `MasterEngine::handle` costs with
//! 1 023 evaluations outstanding against what it costs with 2, timed in the
//! same process so the host's speed cancels. The engine's bookkeeping is
//! meant to be O(1) in the number outstanding; an ordered map keyed by
//! evaluation id in its place reads 1.6 here. Timing needs an optimised
//! build and a quiet moment, so the test is ignored by default; `ci.sh`
//! runs it with `cargo test --release -p borg-protocol --test handle_ratio
//! -- --ignored`.

use borg_desim::fault::FaultLog;
use borg_obs::NoopRecorder;
use borg_protocol::{Clock, EngineConfig, Event, MasterEngine, Transport};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Evaluations per timed run.
const EVENTS: u64 = 400_000;

/// A transport that does nothing but remember what each worker holds.
struct NullTransport {
    now: f64,
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
        f64::INFINITY
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

/// Runs the fault-free protocol over `workers` to a budget of [`EVENTS`],
/// results arriving in a fixed scattered worker order (so ids leave the
/// outstanding set out of order, as they do under a varying `T_F`).
fn drive(workers: usize) -> Duration {
    let mut engine = MasterEngine::new(EngineConfig::fault_free_async(workers, EVENTS));
    let mut t = NullTransport {
        now: 0.0,
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
        few = few.min(drive(2));
        many = many.min(drive(1_023));
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
