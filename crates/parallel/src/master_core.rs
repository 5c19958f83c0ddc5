//! The Borg side of every master interaction (§III), under either clock.
//! A candidate enters at `produce`, may be sent again, and leaves exactly
//! once, by `consume` or `abandon`.

use borg_core::algorithm::{BorgConfig, BorgEngine, Candidate};
use borg_core::problem::Problem;
use borg_protocol::IdWindow;

/// The engine and the candidates awaiting their results.
pub(crate) struct MasterCore {
    engine: BorgEngine,
    /// Each candidate out for evaluation with the time it was last sent.
    /// Deadlines and attempts are the protocol engine's.
    candidates: IdWindow<(Candidate, f64)>,
    /// Objective and constraint counts every result must match.
    shape: (usize, usize),
}

// `#[inline]` on the per-evaluation calls: the executors that make them are
// generic, so they are compiled in the crate that runs them, not this one.
impl MasterCore {
    /// A fresh engine for `problem`, seeded with `engine_seed`.
    pub(crate) fn new<P: Problem + ?Sized>(
        problem: &P,
        borg: BorgConfig,
        engine_seed: u64,
    ) -> Self {
        Self {
            engine: BorgEngine::new(problem, borg, engine_seed),
            candidates: IdWindow::new(),
            shape: (problem.num_objectives(), problem.num_constraints()),
        }
    }

    /// The engine's state.
    #[inline]
    pub(crate) fn engine(&self) -> &BorgEngine {
        &self.engine
    }

    /// The final engine, once the run is over.
    pub(crate) fn into_engine(self) -> BorgEngine {
        self.engine
    }

    /// Whether a result has the problem's shape: checked before any value
    /// of a result from outside the process is used.
    pub(crate) fn fits(&self, objectives: &[f64], constraints: &[f64]) -> bool {
        (objectives.len(), constraints.len()) == self.shape
    }

    /// Produces the candidate for `eval_id`, sent at `now`, and lends its
    /// variables. Ids are issued consecutively.
    #[inline]
    #[expect(clippy::expect_used, reason = "the candidate was just stored")]
    pub(crate) fn produce(&mut self, eval_id: u64, now: f64) -> &[f64] {
        assert_eq!(
            eval_id,
            self.candidates.base() + self.candidates.span() as u64,
            "evaluation ids are issued consecutively"
        );
        let candidate = self.engine.produce();
        self.candidates.insert(eval_id, (candidate, now));
        self.variables(eval_id)
            .expect("the candidate was just stored")
    }

    /// Sends `eval_id`'s candidate again at `now`; `None` if it was
    /// consumed or abandoned since.
    pub(crate) fn resend(&mut self, eval_id: u64, now: f64) -> Option<&[f64]> {
        let (candidate, sent_at) = self.candidates.get_mut(eval_id)?;
        *sent_at = now;
        Some(&candidate.variables)
    }

    /// The variables of `eval_id`'s candidate, if it is still out.
    #[inline]
    pub(crate) fn variables(&self, eval_id: u64) -> Option<&[f64]> {
        Some(&self.candidates.get(eval_id)?.0.variables)
    }

    /// Feeds `eval_id`'s result, which must [`fit`](Self::fits), to the
    /// engine and returns when its candidate was last sent; `None`, with
    /// the engine untouched, if no candidate is out under that id.
    #[inline]
    pub(crate) fn consume(
        &mut self,
        eval_id: u64,
        objectives: &[f64],
        constraints: &[f64],
    ) -> Option<f64> {
        let (candidate, sent_at) = self.candidates.remove(eval_id)?;
        let solution = self
            .engine
            .make_solution_recycled(candidate, objectives, constraints);
        self.engine.consume(solution);
        Some(sent_at)
    }

    /// Gives up on `eval_id`: its candidate is dropped unevaluated.
    pub(crate) fn abandon(&mut self, eval_id: u64) {
        self.candidates.remove(eval_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_problems::dtlz::{Dtlz, DtlzVariant};

    const GOOD: (&[f64], &[f64]) = (&[0.5, 0.5], &[]);

    fn core() -> MasterCore {
        MasterCore::new(
            &Dtlz::new(DtlzVariant::Dtlz2, 2),
            BorgConfig::new(2, 0.05),
            7,
        )
    }

    fn window(core: &MasterCore) -> (u64, usize) {
        (core.candidates.base(), core.candidates.span())
    }

    #[test]
    fn pending_window_trims_consumed_and_abandoned_ids() {
        // Results come back out of order and one evaluation is given up:
        // the window keeps exactly the ids still owed a result.
        let mut core = core();
        for id in 0..3 {
            core.produce(id, 0.0);
        }
        assert_eq!(core.consume(1, GOOD.0, GOOD.1), Some(0.0));
        assert_eq!(window(&core), (0, 3));
        core.abandon(0);
        assert_eq!(window(&core), (2, 1));
        assert!(core.resend(2, 0.2).is_some());
        core.produce(3, 0.2);
        assert_eq!(core.consume(2, GOOD.0, GOOD.1), Some(0.2));
        assert_eq!(core.consume(3, GOOD.0, GOOD.1), Some(0.2));
        assert_eq!(window(&core), (4, 0));
        assert_eq!(core.engine().nfe(), 3);
    }

    #[test]
    fn resend_after_a_consume_or_an_abandon_finds_nothing() {
        let mut core = core();
        core.produce(0, 0.0);
        core.produce(1, 0.0);
        core.consume(0, GOOD.0, GOOD.1);
        core.abandon(1);
        assert_eq!(core.resend(0, 1.0), None);
        assert_eq!(core.resend(1, 1.0), None);
    }

    #[test]
    fn consuming_an_unknown_id_leaves_the_engine_alone() {
        let mut core = core();
        core.produce(0, 0.0);
        assert_eq!(core.consume(5, GOOD.0, GOOD.1), None);
        assert_eq!(core.engine().nfe(), 0);
        assert_eq!(core.consume(0, GOOD.0, GOOD.1), Some(0.0));
        // A second copy of a consumed result finds nothing either.
        assert_eq!(core.consume(0, GOOD.0, GOOD.1), None);
        assert_eq!(core.engine().nfe(), 1);
    }

    #[test]
    fn fits_checks_both_counts() {
        let core = core();
        assert!(core.fits(GOOD.0, GOOD.1));
        assert!(!core.fits(&[0.1, 0.2, 0.3], &[]));
        assert!(!core.fits(GOOD.0, &[0.0]));
    }

    #[test]
    #[should_panic(expected = "consecutively")]
    fn produce_refuses_an_id_out_of_sequence() {
        let mut core = core();
        core.produce(0, 0.0);
        core.produce(2, 0.0);
    }
}
