//! Differential equivalence of the shared protocol core across adapters.
//!
//! The same seeded timing/fault scenario runs twice through the
//! [`MasterEngine`]: once via the bare DES adapter with constant-time
//! hooks, once via the virtual-time executor carrying the real Borg
//! algorithm. Each arm records into its own flight ring; the two rings'
//! complete event sequences (every engine event and command with its
//! timestamp and coordinates), the recovery ledgers, and the queueing
//! outcomes must be identical to the bit — the protocol's decisions
//! depend only on the event stream (timing values and the fault plan),
//! never on which executor hosts it or what payload rides on it.
//!
//! [`MasterEngine`]: borg_protocol::MasterEngine

use borg_core::algorithm::BorgConfig;
use borg_desim::fault::FaultConfig;
use borg_models::dist::Dist;
use borg_models::queueing::{run_async_with, MasterSlaveHooks};
use borg_obs::{FlightEvent, FlightRecorder, NoopRecorder, WithFlight};
use borg_parallel::prelude::*;
use borg_parallel::virtual_exec::VirtualConfig;
use borg_problems::dtlz::{Dtlz, DtlzVariant};
use proptest::prelude::*;

/// Constant-time hooks mirroring the virtual adapter's
/// `TaMode::Sampled(Dist::Constant(..))` semantics: the first `workers`
/// fresh productions (evaluation ids `0..workers`) charge `T_A` (pipeline
/// seeding); later productions are folded into the preceding consume and
/// charge nothing extra.
struct ConstHooks {
    ta: f64,
    tf: f64,
    tc: f64,
    workers: u64,
}

impl MasterSlaveHooks for ConstHooks {
    fn produce(&mut self, _worker: usize, eval_id: u64, _now: f64) -> f64 {
        if eval_id < self.workers {
            self.ta
        } else {
            0.0
        }
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

/// Records longer than any run below: the ring never wraps.
const RING: usize = 1 << 16;

/// The ring's complete history, asserting that nothing was overwritten.
fn history(ring: &FlightRecorder) -> Vec<FlightEvent> {
    let events = ring.events();
    assert_eq!(ring.recorded(), events.len() as u64, "the ring wrapped");
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn des_and_virtual_adapters_emit_identical_traces_and_ledgers(
        workers in 1usize..8,
        n in 1u64..150,
        tf in 0.5f64..2.0,
        tc in 0.000_1f64..0.01,
        ta in 0.000_1f64..0.05,
        crash_rate in 0.0f64..0.5,
        drop_rate in 0.0f64..0.15,
        duplicate_rate in 0.0f64..0.15,
        seed in 0u64..u64::MAX,
    ) {
        let faults = FaultConfig {
            crash_rate,
            drop_rate,
            duplicate_rate,
        };
        let vcfg = VirtualConfig {
            processors: workers as u32 + 1,
            max_nfe: n,
            t_f: Dist::Constant(tf),
            t_c: Dist::Constant(tc),
            t_a: TaMode::Sampled(Dist::Constant(ta)),
            seed,
        };
        let run = FaultyRun::new(&vcfg, &faults);

        // Arm 1: the virtual-time executor (real Borg algorithm payload).
        let virt_ring = FlightRecorder::new(RING);
        let virt = run_virtual_async_with(
            &Dtlz::new(DtlzVariant::Dtlz2, 2),
            BorgConfig::new(2, 0.01),
            &run,
            &WithFlight::new(&NoopRecorder, &virt_ring),
            |_, _| {},
        );

        // Arm 2: the bare DES adapter (no algorithm, constant hooks), fed
        // the same fault plan and policy.
        let mut hooks = ConstHooks {
            ta,
            tf,
            tc,
            workers: workers as u64,
        };
        let des_ring = FlightRecorder::new(RING);
        let des = run_async_with(
            &mut hooks,
            run.engine_config(),
            &run.plan(),
            &WithFlight::new(&NoopRecorder, &des_ring),
        );

        // The protocol's record — every event and command, with its time
        // and coordinates — is executor-independent.
        let (virt_events, des_events) = (history(&virt_ring), history(&des_ring));
        prop_assert!(virt_events.iter().any(|e| e.code == "engine.commands.dispatch"));
        prop_assert_eq!(virt_events, des_events);
        // So is the recovery ledger, record for record...
        prop_assert_eq!(&virt.fault_log, &des.fault_log);
        // ...and the queueing outcome, to the bit.
        prop_assert_eq!(&virt.outcome, &des.outcome);
    }
}
