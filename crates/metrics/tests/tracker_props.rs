//! The dominator-count tracker against a recompute: after every step of a
//! random ε-archive history — accepts, same-box replacements, evictions and
//! fresh starts — [`HvTracker::sync`] must return, bit for bit, what
//! [`McHypervolume::estimate`] gives for the archive's rows over the same
//! samples.
//!
//! [`HvTracker::sync`]: borg_metrics::mc_hypervolume::HvTracker::sync

use borg_core::archive::EpsilonArchive;
use borg_core::solution::Solution;
use borg_metrics::mc_hypervolume::McHypervolume;
use proptest::prelude::*;

/// Coarse palette forcing duplicates, same-box pairs, dominated points, and
/// members sitting exactly on (or beyond) the reference point 1.0.
fn objective_value() -> impl Strategy<Value = f64> {
    prop::sample::select(vec![0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0, 1.2])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tracker_equals_estimate_after_every_step(
        m in prop::sample::select(vec![2usize, 3, 5]),
        epsilon in prop::sample::select(vec![0.05, 0.1, 0.2, 0.3]),
        // Op 0 starts the archive over empty; every other op offers the point.
        stream in prop::collection::vec(
            (prop::collection::vec(objective_value(), 5), 0u8..24),
            1..80,
        ),
    ) {
        // 700 samples: two full kernel blocks and a partial one.
        let est = McHypervolume::new(&vec![0.0; m], &vec![1.0; m], 700, 3);
        let mut tracker = est.tracker();
        let mut archive = EpsilonArchive::uniform(m, epsilon);
        for (step, (point, op)) in stream.iter().enumerate() {
            if *op == 0 {
                archive = EpsilonArchive::uniform(m, epsilon);
            } else {
                archive.add(Solution::from_parts(vec![], point[..m].to_vec(), vec![]));
            }
            let got = tracker.sync(archive.objective_rows());
            let expect = est.estimate(&archive.objective_vectors());
            prop_assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "step {}: tracker {} vs estimate {}",
                step,
                got,
                expect
            );
        }
    }
}
