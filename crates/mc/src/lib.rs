//! `borg-mc` — a bounded schedule-space model checker for the
//! [`borg_protocol::MasterEngine`].
//!
//! The paper's asynchronous speedup claims rest on the master being
//! insensitive to event *arrival order*, yet the workspace's other
//! correctness gates (the determinism arms, the differential proptests)
//! replay exactly one schedule per seed. This crate closes that gap: it
//! materialises every in-flight message and timer as an explicit
//! pending event ([`ModelTransport`]), then exhaustively explores every
//! delivery order a bounded adversary could produce
//! ([`explore::run_scenario`]), asserting at each step and each
//! terminal state that:
//!
//! - no evaluation id is ever consumed twice (`unique-consume`) or
//!   consumed without being dispatched (`consume-implies-dispatch`);
//! - duplicate messages are absorbed, never silently lost
//!   (`duplicate-absorption`);
//! - the budget is conserved — runs finish at exactly the budget, and a
//!   drained schedule that did not finish accounted for every missing
//!   evaluation as an abandonment (`budget-conservation`);
//! - the fault ledger mirrors what actually happened on the wire
//!   (`ledger-*`);
//! - all schedules of a scenario agree on the outcome
//!   (`outcome-divergence`): completion counts under eager dispatch,
//!   exact consumed/abandoned sets under budgeted dispatch.
//!
//! Commuting interleavings are folded by state-digest memoization (the
//! stateful analogue of DPOR sleep sets) without losing schedule
//! counts, and scenarios with death notifications bound how far an
//! event may be overtaken (`delay_window`) so that only realistic
//! reorderings count against outcome agreement. The checker proves its
//! own teeth before every run: [`mutation::self_test`] re-explores the
//! duplicates scenario against a deliberately sabotaged engine and
//! errors out if no violation surfaces.
//!
//! Entry points: `cargo xtask mc [--smoke] [--depth N] [--json]` (which
//! also prints schedules per second) and the unit tests.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

pub mod explore;
pub mod mutation;
pub mod overlay;
pub mod scenarios;
pub mod transport;

pub use explore::{run_scenario, Scenario, ScenarioReport, Strictness, Violation};
pub use overlay::{Fate, Overlay, SeededFaults};
pub use transport::{ModelTransport, Pending, PendingAt};

/// Aggregate result of a checker run.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Per-scenario exploration reports, in catalogue order.
    pub scenarios: Vec<ScenarioReport>,
    /// The mutation self-test's report (its violations are *expected*).
    pub mutation: ScenarioReport,
}

impl McReport {
    /// Total schedules across scenarios (saturating).
    pub fn schedules(&self) -> u64 {
        self.scenarios
            .iter()
            .fold(0u64, |a, s| a.saturating_add(s.schedules))
    }

    /// Total memo-folded subtree re-entries.
    pub fn pruned(&self) -> u64 {
        self.scenarios.iter().map(|s| s.pruned).sum()
    }

    /// Total distinct states visited.
    pub fn unique_states(&self) -> u64 {
        self.scenarios.iter().map(|s| s.unique_states).sum()
    }

    /// Violations across the real scenarios (mutation excluded).
    pub fn violations(&self) -> Vec<&Violation> {
        self.scenarios.iter().flat_map(|s| &s.violations).collect()
    }

    /// Clean run: no violations, no depth truncation, and the mutation
    /// self-test caught its sabotage.
    pub fn ok(&self) -> bool {
        self.violations().is_empty()
            && self.scenarios.iter().all(|s| s.truncated == 0)
            && !self.mutation.violations.is_empty()
    }
}

/// Run the checker: the smoke subset or the full catalogue, with an
/// optional depth override, always preceded by the mutation self-test.
pub fn run(smoke: bool, depth: Option<usize>) -> Result<McReport, String> {
    let mutation = mutation::self_test()?;
    let mut scenarios = if smoke {
        scenarios::smoke()
    } else {
        scenarios::full()
    };
    if let Some(d) = depth {
        for s in &mut scenarios {
            s.max_depth = d;
        }
    }
    let reports = scenarios.iter().map(explore::run_scenario).collect();
    Ok(McReport {
        scenarios: reports,
        mutation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_clean_and_covers_a_thousand_schedules() {
        let report = run(true, None).expect("mutation self-test");
        assert!(
            report.ok(),
            "violations: {:?}",
            report
                .violations()
                .iter()
                .map(|v| (&v.scenario, v.invariant, &v.detail))
                .collect::<Vec<_>>()
        );
        assert!(
            report.schedules() >= 1000,
            "only {} schedules explored",
            report.schedules()
        );
        assert!(report.pruned() > 0, "memoization never fired");
    }

    #[test]
    fn depth_override_truncates_and_is_reported() {
        let report = run(true, Some(2)).expect("mutation self-test");
        assert!(!report.ok(), "a depth-2 bound must truncate");
        assert!(report.scenarios.iter().any(|s| s.truncated > 0));
    }
}
