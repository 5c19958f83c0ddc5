//! Bounded exhaustive exploration of event-delivery schedules.
//!
//! The explorer runs a depth-first search over every order in which the
//! pending events of a [`ModelTransport`] can be delivered to a
//! [`MasterEngine`], checking the invariant catalogue at every step and
//! at every terminal state. Two reduction mechanisms keep the search
//! tractable without sacrificing coverage *counts*:
//!
//! - **State-digest memoization** (the stateful analogue of DPOR sleep
//!   sets): interleavings of commuting events converge to the same
//!   `(engine, transport)` digest, and a converged state's subtree is
//!   explored once. The memo stores the number of schedules below each
//!   state, so pruned subtrees still contribute their full schedule
//!   count — `schedules` is the true size of the schedule space, while
//!   `pruned` counts the subtree re-entries that were folded away.
//! - **Bounded-delay scheduling** (optional): an event may be overtaken
//!   by at most `delay_window` younger events. This models bounded
//!   message reordering — the realistic adversary for a master over
//!   TCP-like links — and is required for scenarios where *unbounded*
//!   postponement of a death notification legitimately changes the
//!   outcome (reissue cascades into the abandonment cap).

use crate::overlay::Overlay;
use crate::transport::ModelTransport;
use borg_obs::NoopRecorder;
use borg_protocol::{EngineConfig, Event, MasterEngine, PoolDiscipline};
use std::collections::BTreeMap;

/// How strictly terminal outcomes must agree across schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strictness {
    /// All schedules must complete the same number of evaluations and
    /// abandon the same number. The right bar for `Eager` dispatch,
    /// where the *identity* of the in-flight tail legitimately depends
    /// on arrival order.
    CompletedCount,
    /// All schedules must consume exactly the same set of eval ids and
    /// abandon exactly the same set. The bar for `Budgeted` protocols,
    /// whose work identity is schedule-independent.
    ConsumedSet,
    /// All schedules must account for the same set of eval ids, but the
    /// consumed/abandoned *partition* may differ. The bar for scenarios
    /// that deliberately expose the reissue cap: a timer adversary can
    /// race a deadline against its own result all the way to
    /// abandonment, so which side of the ledger an id lands on is
    /// schedule-dependent — losing or double-counting an id never is.
    WorkConservation,
}

/// One scenario: an engine configuration plus a fault overlay and the
/// exploration bounds under which its invariants must hold.
#[derive(Debug, Clone)]
pub(crate) struct Scenario {
    /// Stable scenario name (reported, and used by `--json`).
    pub name: &'static str,
    /// Engine shape under test.
    pub config: EngineConfig,
    /// Fault overlay (shared-pool flags are derived from `config`).
    pub overlay: Overlay,
    /// Outcome-agreement bar.
    pub strictness: Strictness,
    /// Bounded-delay window (`None` = arbitrary reordering).
    pub delay_window: Option<u64>,
    /// Heartbeat re-arms honoured before truncating the timer chain.
    pub rearm_cap: u32,
    /// Safety depth bound per schedule (deliveries).
    pub max_depth: usize,
    /// Run with duplicate suppression sabotaged (mutation self-test
    /// only: a clean report under sabotage means the checker is blind).
    pub sabotage: bool,
}

/// One invariant violation, with the schedule that produced it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Scenario that produced it.
    pub scenario: String,
    /// Invariant identifier (stable, kebab-case).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
    /// The delivered-event trace from the initial state.
    pub trace: Vec<String>,
}

/// Exploration results for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Distinct complete schedules covered (memo-folded subtrees count
    /// with full multiplicity; saturating).
    pub schedules: u64,
    /// Distinct states visited (memo size).
    pub unique_states: u64,
    /// Subtree re-entries folded by the memo.
    pub pruned: u64,
    /// Schedules cut short by the depth bound (0 for a sound report).
    pub truncated: u64,
    /// Heartbeat re-arms refused past the cap.
    pub rearms_truncated: u64,
    /// Distinct terminal outcome digests (1 for a schedule-independent
    /// protocol; more is an outcome-divergence violation).
    pub outcomes: u64,
    /// Invariant violations found (capped at `MAX_VIOLATIONS`).
    pub violations: Vec<Violation>,
}

/// Per-scenario cap on collected violations; exploration stops early
/// once reached (the report is already damning).
pub(crate) const MAX_VIOLATIONS: usize = 4;

struct Explorer<'a> {
    scenario: &'a Scenario,
    memo: BTreeMap<u64, u64>,
    pruned: u64,
    truncated: u64,
    outcomes: std::collections::BTreeSet<u64>,
    first_outcome: Option<(u64, Vec<String>)>,
    violations: Vec<Violation>,
    trace: Vec<String>,
}

/// Explore `scenario` exhaustively and report.
pub(crate) fn run_scenario(scenario: &Scenario) -> ScenarioReport {
    let mut engine = MasterEngine::new(scenario.config);
    if scenario.sabotage {
        engine.sabotage_duplicate_suppression();
    }
    let mut overlay = scenario.overlay.clone();
    if scenario.config.discipline == PoolDiscipline::Shared {
        overlay.shared_death_notes = true;
        overlay.shared_pickup = true;
    }
    let mut transport = ModelTransport::new(
        scenario.config.workers,
        scenario.config.policy.timeout.is_finite(),
        scenario.rearm_cap,
        overlay,
    );
    engine.seed(&mut transport, &NoopRecorder);

    let mut ex = Explorer {
        scenario,
        memo: BTreeMap::new(),
        pruned: 0,
        truncated: 0,
        outcomes: std::collections::BTreeSet::new(),
        first_outcome: None,
        violations: Vec::new(),
        trace: Vec::new(),
    };
    let schedules = ex.explore(&engine, &transport, 0);
    let rearms_truncated = transport.rearms_truncated;
    ScenarioReport {
        name: scenario.name.to_string(),
        schedules,
        unique_states: ex.memo.len() as u64,
        pruned: ex.pruned,
        truncated: ex.truncated,
        rearms_truncated,
        outcomes: ex.outcomes.len() as u64,
        violations: ex.violations,
    }
}

impl Explorer<'_> {
    fn explore(&mut self, engine: &MasterEngine, t: &ModelTransport, depth: usize) -> u64 {
        if self.violations.len() >= MAX_VIOLATIONS {
            return 1;
        }
        if engine.finished() || t.pending.is_empty() {
            self.check_terminal(engine, t);
            return 1;
        }
        if depth >= self.scenario.max_depth {
            self.truncated += 1;
            return 1;
        }
        let digest = self.state_digest(engine, t);
        if let Some(&below) = self.memo.get(&digest) {
            self.pruned += 1;
            return below;
        }
        let mut total: u64 = 0;
        for index in self.enabled(t) {
            let mut e2 = engine.clone();
            let mut t2 = t.clone();
            let event = t2.deliver(index);
            self.trace.push(describe(&event));
            e2.handle(event, &mut t2, &NoopRecorder);
            self.check_step(&e2, &t2);
            total = total.saturating_add(self.explore(&e2, &t2, depth + 1));
            self.trace.pop();
        }
        self.memo.insert(digest, total);
        total
    }

    /// Indices of pending events the scheduler may deliver next. Under a
    /// bounded-delay window only events at most `window` births younger
    /// than the oldest pending event are enabled, so nothing can be
    /// postponed forever.
    fn enabled(&self, t: &ModelTransport) -> Vec<usize> {
        match self.scenario.delay_window {
            None => (0..t.pending.len()).collect(),
            Some(window) => {
                let min_birth = t.pending.iter().map(|p| p.birth).min().unwrap_or(0);
                (0..t.pending.len())
                    .filter(|&i| t.pending[i].birth <= min_birth + window)
                    .collect()
            }
        }
    }

    fn state_digest(&self, engine: &MasterEngine, t: &ModelTransport) -> u64 {
        let include_births = self.scenario.delay_window.is_some();
        engine.state_digest() ^ t.digest(include_births).rotate_left(17)
    }

    fn violation(&mut self, invariant: &'static str, detail: String) {
        if self
            .violations
            .iter()
            .any(|v| v.invariant == invariant && v.detail == detail)
        {
            return;
        }
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation {
                scenario: self.scenario.name.to_string(),
                invariant,
                detail,
                trace: self.trace.clone(),
            });
        }
    }

    /// Invariants checked after every delivery (cheap, catch bugs at the
    /// step that introduces them so the trace points at the culprit).
    fn check_step(&mut self, engine: &MasterEngine, t: &ModelTransport) {
        // I1: no eval id is ever consumed twice.
        if let Some(id) = t.double_consumed() {
            self.violation("unique-consume", format!("eval {id} consumed twice"));
        }
        // I2: everything consumed was actually dispatched.
        for &id in t.consumed.keys() {
            if !t.dispatched.contains(&id) {
                self.violation(
                    "consume-implies-dispatch",
                    format!("eval {id} consumed but never dispatched"),
                );
            }
        }
        // I3: the engine's completed counter mirrors the transport's
        // consume calls one-for-one.
        if engine.completed() != t.total_consumes() {
            self.violation(
                "completed-count",
                format!(
                    "engine completed {} but transport saw {} consumes",
                    engine.completed(),
                    t.total_consumes()
                ),
            );
        }
        // Duplicate suppression: the model transport only emits results
        // for dispatched evals, so an arrival routed to `unknown_result`
        // is only legitimate for an abandoned eval. A consumed id landing
        // there means a duplicate was *lost* instead of absorbed.
        for &id in &t.unknown_ids {
            if t.consumed.contains_key(&id) && !t.abandoned.contains(&id) {
                self.violation(
                    "duplicate-absorption",
                    format!("arrival for consumed eval {id} fell through to unknown_result"),
                );
            }
        }
        // I7 (running half): ledger counters mirror transport calls.
        let log = engine.log();
        if log.duplicates_suppressed != t.absorbed_duplicates {
            self.violation(
                "ledger-duplicates",
                format!(
                    "ledger says {} duplicates suppressed, transport absorbed {}",
                    log.duplicates_suppressed, t.absorbed_duplicates
                ),
            );
        }
        if log.reissues != t.reissue_dispatches {
            self.violation(
                "ledger-reissues",
                format!(
                    "ledger says {} reissues, transport dispatched {} retries",
                    log.reissues, t.reissue_dispatches
                ),
            );
        }
        if engine.abandoned() != t.abandoned.len() as u64 {
            self.violation(
                "ledger-abandoned",
                format!(
                    "engine abandoned {} but transport was told of {}",
                    engine.abandoned(),
                    t.abandoned.len()
                ),
            );
        }
    }

    /// Invariants checked at terminal states (budget conservation and
    /// outcome agreement across schedules).
    fn check_terminal(&mut self, engine: &MasterEngine, t: &ModelTransport) {
        self.check_step(engine, t);
        let budget = self.scenario.config.budget;
        if engine.finished() {
            // I4: the finish line is exactly the budget (the engine
            // consumes one result at a time).
            if engine.completed() != budget {
                self.violation(
                    "budget-conservation",
                    format!(
                        "finished with completed {} (budget {budget})",
                        engine.completed()
                    ),
                );
            }
        } else {
            // Pending drained without finishing: legitimate only when
            // abandonment consumed the missing budget. Anything else is
            // lost work — an eval id that fell out of every ledger.
            if engine.completed() + engine.abandoned() < budget {
                self.violation(
                    "budget-conservation",
                    format!(
                        "deadlock: drained with completed {} + abandoned {} < budget {budget}",
                        engine.completed(),
                        engine.abandoned()
                    ),
                );
            }
        }
        // I7 (terminal half): wasted NFE is bounded by what was injected
        // plus what suppression absorbed.
        let log = engine.log();
        let floor = t.drops_injected + log.duplicates_suppressed;
        let ceiling = floor + t.dups_injected + t.deaths_injected;
        if log.wasted_nfe < floor || log.wasted_nfe > ceiling {
            self.violation(
                "ledger-wasted-nfe",
                format!("wasted_nfe {} outside [{floor}, {ceiling}]", log.wasted_nfe),
            );
        }
        // I6: outcome agreement across schedules.
        let outcome = self.outcome_digest(engine, t);
        self.outcomes.insert(outcome);
        match &self.first_outcome {
            None => self.first_outcome = Some((outcome, self.trace.clone())),
            Some((first, first_trace)) => {
                if *first != outcome {
                    let detail = format!(
                        "outcome digest {outcome:#018x} diverges from {first:#018x} \
                         (first reached via [{}])",
                        first_trace.join(", ")
                    );
                    self.violation("outcome-divergence", detail);
                }
            }
        }
    }

    fn outcome_digest(&self, engine: &MasterEngine, t: &ModelTransport) -> u64 {
        let mut h = 0x2545_F491_4F6C_DD1Du64;
        match self.scenario.strictness {
            Strictness::CompletedCount => {
                h = mix(h ^ engine.completed());
                h = mix(h ^ engine.abandoned());
                h = mix(h ^ u64::from(engine.finished()));
            }
            Strictness::ConsumedSet => {
                h = mix(h ^ engine.completed());
                h = mix(h ^ engine.abandoned());
                h = mix(h ^ u64::from(engine.finished()));
                for &id in t.consumed.keys() {
                    h = mix(h ^ id);
                }
                for &id in &t.abandoned {
                    h = mix(h ^ (id << 1) ^ 1);
                }
            }
            Strictness::WorkConservation => {
                let union: std::collections::BTreeSet<u64> = t
                    .consumed
                    .keys()
                    .copied()
                    .chain(t.abandoned.iter().copied())
                    .collect();
                h = mix(h ^ union.len() as u64);
                for id in union {
                    h = mix(h ^ id);
                }
            }
        }
        h
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn describe(event: &Event) -> String {
    match *event {
        Event::ResultArrived {
            worker, eval_id, ..
        } => format!("result w{worker} e{eval_id}"),
        Event::DeadlineFired {
            eval_id, worker, ..
        } => format!("deadline e{eval_id} w{worker}"),
        Event::HeartbeatTick { .. } => "heartbeat".to_string(),
        Event::WorkerDied { worker, .. } => format!("death w{worker}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_protocol::RecoveryPolicy;

    fn tiny_fault_free() -> Scenario {
        Scenario {
            name: "test_fault_free",
            config: EngineConfig::fault_free_async(2, 4),
            overlay: Overlay::quiet(),
            strictness: Strictness::CompletedCount,
            delay_window: None,
            rearm_cap: 0,
            max_depth: 32,
            sabotage: false,
        }
    }

    #[test]
    fn fault_free_pipeline_is_schedule_independent() {
        let report = run_scenario(&tiny_fault_free());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.outcomes, 1);
        assert!(report.schedules >= 8, "schedules {}", report.schedules);
        assert_eq!(report.truncated, 0);
    }

    #[test]
    fn duplicates_are_absorbed_on_every_schedule() {
        let scenario = Scenario {
            name: "test_duplicates",
            config: EngineConfig::fault_tolerant_async(2, 4, RecoveryPolicy::disabled()),
            overlay: Overlay::duplicates(&[(0, 0), (2, 0)]),
            strictness: Strictness::ConsumedSet,
            delay_window: None,
            rearm_cap: 0,
            max_depth: 48,
            sabotage: false,
        };
        let report = run_scenario(&scenario);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.outcomes, 1);
    }

    #[test]
    fn timer_adversary_reaches_cascade_abandonment() {
        // A deadline can race its own result all the way to the reissue
        // cap under unbounded reordering: budget 1, one worker, cap 1.
        // Schedules: consume immediately (finished) vs deadline, reissue,
        // deadline again, abandon (drained unfinished). Both conserve the
        // budget, so under ConsumedSet strictness this must surface as
        // outcome divergence — proof the explorer reaches the cascade.
        let scenario = Scenario {
            name: "test_cascade",
            config: EngineConfig::fault_tolerant_async(
                1,
                1,
                RecoveryPolicy {
                    timeout: 5.0,
                    heartbeat_interval: f64::INFINITY,
                    max_reissues: 1,
                },
            ),
            overlay: Overlay::quiet(),
            strictness: Strictness::ConsumedSet,
            delay_window: None,
            rearm_cap: 0,
            max_depth: 32,
            sabotage: false,
        };
        let report = run_scenario(&scenario);
        assert!(report.outcomes >= 2, "cascade not reached: {report:?}");
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "outcome-divergence"));
    }

    #[test]
    fn sabotaged_duplicate_suppression_is_caught() {
        let scenario = Scenario {
            name: "test_sabotage",
            config: EngineConfig::fault_tolerant_async(2, 4, RecoveryPolicy::disabled()),
            overlay: Overlay::duplicates(&[(0, 0), (2, 0)]),
            strictness: Strictness::ConsumedSet,
            delay_window: None,
            rearm_cap: 0,
            max_depth: 48,
            sabotage: true,
        };
        let report = run_scenario(&scenario);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == "duplicate-absorption"),
            "sabotage went undetected: {:?}",
            report.violations
        );
        let v = &report.violations[0];
        assert!(!v.trace.is_empty(), "violation carries no trace");
    }
}
