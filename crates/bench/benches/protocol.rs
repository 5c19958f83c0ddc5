//! Benchmarks of the shared master-slave protocol core (`borg-protocol`).
//!
//! Three views of its cost: the raw `MasterEngine` overhead per handled
//! event against a null transport (the price every executor pays per
//! master interaction), the fault-free DES master it drives, and the same
//! DES master with the full recovery machinery armed but quiet (zero
//! fault rates) — the gap between the last two is what deadline tracking
//! and duplicate suppression cost when nothing goes wrong.

use borg_desim::fault::{FaultConfig, FaultLog, FaultPlan};
use borg_models::queueing::{run_async, run_async_with, MasterSlaveHooks};
use borg_obs::NoopRecorder;
use borg_protocol::{Clock, EngineConfig, Event, MasterEngine, RecoveryPolicy, Transport};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// A transport that does nothing and charges nothing: what remains is
/// the engine's own bookkeeping (deadline map, seen-id set, slot
/// assignment) per event.
struct NullTransport {
    now: f64,
}

impl Clock for NullTransport {
    fn now(&self) -> f64 {
        self.now
    }
}

impl Transport for NullTransport {
    fn dispatch(
        &mut self,
        _worker: usize,
        _eval_id: u64,
        _attempt: u32,
        _seq: u64,
        _log: &mut FaultLog,
    ) -> f64 {
        f64::INFINITY
    }
    fn consume(&mut self, _worker: usize, _eval_id: u64, ready_at: f64) -> f64 {
        ready_at
    }
    fn absorb_duplicate(&mut self, _worker: usize, _eval_id: u64, ready_at: f64) -> f64 {
        ready_at
    }
    fn ping(&mut self, _worker: usize) -> (f64, f64) {
        (self.now, self.now)
    }
    fn rearm_heartbeat(&mut self, _at: f64) {}
    fn abandon(&mut self, _eval_id: u64) {}
}

/// Drives a fault-free engine to completion with results delivered in
/// dispatch order (eval id `n` lands on worker `n % workers`).
fn drive_engine<R: borg_obs::Recorder + ?Sized>(workers: usize, budget: u64, rec: &R) -> u64 {
    let mut engine = MasterEngine::new(EngineConfig::fault_free_async(workers, budget));
    let mut t = NullTransport { now: 0.0 };
    engine.seed(&mut t, rec);
    let mut eval_id = 0u64;
    while !engine.finished() {
        t.now += 1.0;
        engine.handle(
            Event::ResultArrived {
                worker: eval_id as usize % workers,
                eval_id,
                at: t.now,
            },
            &mut t,
            rec,
        );
        eval_id += 1;
    }
    engine.completed()
}

struct ConstHooks {
    ta: f64,
    tf: f64,
    tc: f64,
}

impl MasterSlaveHooks for ConstHooks {
    fn produce(&mut self, _worker: usize, _eval_id: u64, _now: f64) -> f64 {
        self.ta
    }
    fn evaluation_time(&mut self, _worker: usize, _eval_id: u64) -> f64 {
        self.tf
    }
    fn consume(&mut self, _worker: usize, _eval_id: u64, _now: f64) -> f64 {
        self.ta
    }
    fn comm_time(&mut self) -> f64 {
        self.tc
    }
}

const HOOKS: ConstHooks = ConstHooks {
    ta: 0.000_03,
    tf: 0.01,
    tc: 0.000_006,
};

fn bench_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol");

    let (workers, events) = (64, 10_000u64);
    group.bench_function("engine_null_transport_w64_10k_events", |b| {
        b.iter(|| drive_engine(black_box(workers), events, &NoopRecorder))
    });

    let (workers, n) = (32, 2_000u64);
    group.bench_function("des_async_fault_free_w32_2k", |b| {
        b.iter(|| {
            let mut hooks = HOOKS;
            run_async(&mut hooks, black_box(workers), n, &NoopRecorder)
        })
    });

    // Recovery machinery armed (deadlines at 4·E[T_F], duplicate
    // suppression live) but no faults drawn: the steady-state overhead of
    // fault tolerance.
    let quiet = FaultConfig {
        crash_rate: 0.0,
        hang_rate: 0.0,
        straggler_rate: 0.0,
        straggler_factor: 1.0,
        drop_rate: 0.0,
        duplicate_rate: 0.0,
        respawn_after: None,
        forced_crashes: Vec::new(),
    };
    let plan = FaultPlan::new(quiet, workers, n, 42);
    let policy = RecoveryPolicy::from_expected_eval_time(HOOKS.tf, 4.0);
    group.bench_function("des_async_recovery_quiet_w32_2k", |b| {
        b.iter(|| {
            let mut hooks = HOOKS;
            let config = EngineConfig::fault_tolerant_async(black_box(workers), n, policy);
            run_async_with(&mut hooks, config, &plan, false, &NoopRecorder)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_protocol);
criterion_main!(benches);
