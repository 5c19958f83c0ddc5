//! The scenario catalogue: every protocol shape the workspace ships,
//! each under the fault overlay that stresses its recovery path.
//!
//! Budgets are deliberately small — the schedule space grows as
//! `O(branching^depth)` and the point is exhaustiveness at small scale,
//! not statistical coverage at large scale (the DES sweeps own that).
//! Recovery scenarios use a bounded-delay window plus a high reissue
//! cap: under unbounded reordering a deadline can race its own result
//! to the abandonment cap (a legitimate outcome change, not a bug), so
//! the window bounds how long a result can be postponed and the cap is
//! set beyond what any bounded-delay cascade can reach — making
//! [`Strictness::ConsumedSet`] a theorem again. The cap itself is
//! exercised by [`abandonment_cap`], which explores the cascade freely
//! under the weaker [`Strictness::WorkConservation`] bar.

use crate::explore::{Scenario, Strictness};
use crate::overlay::Overlay;
use borg_protocol::{EngineConfig, RecoveryPolicy};

/// Deadline-based recovery without the heartbeat sweep. The cap of 16
/// is unreachable under the delay windows used below (each cascade step
/// needs the freshest deadline delivered while the eval's own results
/// stay postponed, and the window forbids postponing them that long).
fn deadline_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        timeout: 5.0,
        heartbeat_interval: f64::INFINITY,
        max_reissues: 16,
    }
}

/// Deadline recovery plus the liveness sweep (death scenarios).
fn sweep_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        timeout: 5.0,
        heartbeat_interval: 1.0,
        max_reissues: 16,
    }
}

/// The quick subset run by `cargo xtask mc --smoke` and CI: fault-free
/// pipeline and duplicate absorption.
pub(crate) fn smoke() -> Vec<Scenario> {
    vec![fault_free_async(), duplicates()]
}

/// The full catalogue.
pub(crate) fn full() -> Vec<Scenario> {
    vec![
        fault_free_async(),
        duplicates(),
        drops_reissue(),
        worker_death(),
        shared_pool_death(),
        seeded_faults(),
        abandonment_cap(),
    ]
}

/// The paper's fault-free asynchronous pipeline: three workers race
/// their results; completion count must be order-independent (the
/// identity of the in-flight tail is legitimately order-dependent under
/// eager dispatch, hence the count-level bar).
pub(crate) fn fault_free_async() -> Scenario {
    Scenario {
        name: "fault_free_async",
        config: EngineConfig::fault_free_async(3, 8),
        overlay: Overlay::quiet(),
        strictness: Strictness::CompletedCount,
        delay_window: None,
        rearm_cap: 0,
        max_depth: 64,
        sabotage: false,
    }
}

/// Duplicated result messages racing their originals: both orders of
/// (original, duplicate) must converge to the same consumed set.
pub(crate) fn duplicates() -> Scenario {
    Scenario {
        name: "duplicates",
        config: EngineConfig::fault_tolerant_async(2, 5, RecoveryPolicy::disabled()),
        overlay: Overlay::duplicates(&[(0, 0), (3, 0)]),
        strictness: Strictness::ConsumedSet,
        delay_window: None,
        rearm_cap: 0,
        max_depth: 48,
        sabotage: false,
    }
}

/// A dropped result message: the deadline must rescue the evaluation on
/// every schedule, including those where other deadlines fire spuriously
/// while their results are still in flight (reissue races the original).
pub(crate) fn drops_reissue() -> Scenario {
    Scenario {
        name: "drops_reissue",
        config: EngineConfig::fault_tolerant_async(2, 4, deadline_policy()),
        overlay: Overlay::drops(&[(1, 0)]),
        strictness: Strictness::ConsumedSet,
        delay_window: Some(3),
        rearm_cap: 0,
        max_depth: 64,
        sabotage: false,
    }
}

/// A worker dies silently on its first assignment and never returns;
/// ping and heartbeat must converge on quarantining it and the lost
/// evaluation must be reissued elsewhere, whichever order the death
/// note, deadlines, and sweeps are delivered in.
pub(crate) fn worker_death() -> Scenario {
    Scenario {
        name: "worker_death",
        config: EngineConfig::fault_tolerant_async(2, 3, sweep_policy()),
        overlay: Overlay::death(1, 0),
        strictness: Strictness::ConsumedSet,
        delay_window: Some(3),
        rearm_cap: 3,
        max_depth: 64,
        sabotage: false,
    }
}

/// Death on a shared pull queue: the out-of-band death note names the
/// lost evaluation and any live thread picks up the reissue.
pub(crate) fn shared_pool_death() -> Scenario {
    Scenario {
        name: "shared_pool_death",
        config: EngineConfig::shared_pool_async(2, 3, deadline_policy()),
        overlay: Overlay::death(1, 0),
        strictness: Strictness::ConsumedSet,
        delay_window: Some(3),
        rearm_cap: 0,
        max_depth: 64,
        sabotage: false,
    }
}

/// Seeded background drop/duplicate rates (the overlay analogue of
/// `FaultConfig::degraded`): fates hash off `(eval_id, attempt)` so
/// every schedule sees the same faults in a different order.
pub(crate) fn seeded_faults() -> Scenario {
    Scenario {
        name: "seeded_faults",
        config: EngineConfig::fault_tolerant_async(2, 4, deadline_policy()),
        overlay: Overlay::seeded(0xB07, 150, 150),
        strictness: Strictness::ConsumedSet,
        delay_window: Some(3),
        rearm_cap: 0,
        max_depth: 72,
        sabotage: false,
    }
}

/// The reissue cap under a free timer adversary: with `max_reissues: 1`
/// and no delay window a deadline can race its own result to
/// abandonment, so *which* ledger an eval id lands on is legitimately
/// schedule-dependent. The bar drops to work conservation — every id
/// accounted for on exactly one ledger, none lost, none counted twice —
/// which this scenario proves holds even at the cap.
pub(crate) fn abandonment_cap() -> Scenario {
    Scenario {
        name: "abandonment_cap",
        config: EngineConfig::fault_tolerant_async(
            2,
            2,
            RecoveryPolicy {
                timeout: 5.0,
                heartbeat_interval: f64::INFINITY,
                max_reissues: 1,
            },
        ),
        overlay: Overlay::quiet(),
        strictness: Strictness::WorkConservation,
        delay_window: None,
        rearm_cap: 0,
        max_depth: 48,
        sabotage: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_a_subset_of_full() {
        let full_names: Vec<&str> = full().iter().map(|s| s.name).collect();
        for s in smoke() {
            assert!(full_names.contains(&s.name), "{} not in full()", s.name);
        }
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = full().iter().map(|s| s.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn smoke_counts_are_pinned() {
        // `(schedules, unique_states, pruned)` per async smoke scenario:
        // a moved count means the engine's `state_digest` or a decision
        // changed. `pruned > 0` shows the memo still folds commuting
        // interleavings.
        let pins = [
            (fault_free_async(), (6_561, 1_450, 624)),
            (duplicates(), (644, 83, 72)),
        ];
        for (scenario, counts) in pins {
            let r = crate::run_scenario(&scenario);
            assert!(r.violations.is_empty(), "{}: {:?}", r.name, r.violations);
            assert_eq!(
                (r.schedules, r.unique_states, r.pruned),
                counts,
                "{}",
                r.name
            );
        }
    }

    #[test]
    #[ignore = "explores the full catalogue; ci.sh runs it in release"]
    fn full_catalogue_counts_are_pinned() {
        // `(schedules, unique_states, pruned)` for every full-catalogue
        // scenario the smoke pins do not cover, looked up by name.
        let pins = [
            ("drops_reissue", (168_377_213, 276_980, 452_441)),
            ("worker_death", (525_179_393, 517_726, 685_677)),
            ("shared_pool_death", (79_915_531, 258_369, 393_133)),
            ("seeded_faults", (3_500_268_644, 246_746, 406_065)),
            ("abandonment_cap", (1_672, 107, 146)),
        ];
        let catalogue = full();
        for (name, counts) in pins {
            let Some(scenario) = catalogue.iter().find(|s| s.name == name) else {
                panic!("{name} not in full()");
            };
            let r = crate::run_scenario(scenario);
            assert!(r.violations.is_empty(), "{}: {:?}", r.name, r.violations);
            assert_eq!(
                (r.schedules, r.unique_states, r.pruned),
                counts,
                "{}",
                r.name
            );
        }
    }

    #[test]
    fn no_catalogue_scenario_ships_sabotaged() {
        assert!(full().iter().all(|s| !s.sabotage));
    }
}
