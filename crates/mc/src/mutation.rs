//! The model checker's mutation self-test.
//!
//! Every BORG lint proves it still has teeth by running against an
//! annotated fixture of seeded violations before scanning the real
//! tree. The model checker gets the same treatment at the semantic
//! level: the duplicates scenario re-runs against an engine whose
//! duplicate-suppression check is deliberately disabled
//! ([`borg_protocol::MasterEngine::sabotage_duplicate_suppression`]).
//! If no explored schedule violates an invariant under that sabotage,
//! the checker is blind and its clean verdict on the real engine is
//! worthless — so a blind run is an *error*, not a pass.

use crate::explore::{run_scenario, Scenario, ScenarioReport};
use crate::scenarios;

/// The sabotaged scenario: duplicates with suppression disabled.
pub(crate) fn sabotaged_scenario() -> Scenario {
    Scenario {
        name: "mutation_duplicate_suppression",
        sabotage: true,
        ..scenarios::duplicates()
    }
}

/// Run the self-test. `Ok` carries the (violating) report; `Err` means
/// the sabotage went undetected.
pub(crate) fn self_test() -> Result<ScenarioReport, String> {
    let report = run_scenario(&sabotaged_scenario());
    if report.violations.is_empty() {
        return Err(
            "mutation self-test failed: sabotaged duplicate suppression produced no \
             violating schedule — the invariant catalogue is blind"
                .to_string(),
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sabotage_is_detected_with_a_trace() {
        let report = self_test().expect("self-test must catch the sabotage");
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "duplicate-absorption")
            .expect("expected a duplicate-absorption violation");
        assert!(!v.trace.is_empty());
        assert_eq!(v.scenario, "mutation_duplicate_suppression");
    }
}
