//! Property-based tests over the core data structures and invariants.

use borg_repro::core::archive::EpsilonArchive;
use borg_repro::core::dominance::{
    epsilon_box_dominance, nondominated_indices, pareto_dominance_objectives, BoxDominance,
    Dominance,
};
use borg_repro::core::operators::standard_borg_operators;
use borg_repro::core::problem::Bounds;
use borg_repro::core::solution::Solution;
use borg_repro::desim::fault::{FaultConfig, FaultPlan};
use borg_repro::desim::EventQueue;
use borg_repro::metrics::hypervolume::hypervolume;
use borg_repro::metrics::nds::nondominated_filter;
use borg_repro::models::dist::Dist;
use borg_repro::models::queueing::{
    run_async, run_async_with, run_sync, EngineConfig, MasterSlaveHooks, RecoveryPolicy,
};
use proptest::prelude::*;

/// Constant-time hooks for the queueing property tests: every interaction
/// has a fixed cost, so only the fault plan perturbs the schedule.
struct ConstHooks {
    t_f: f64,
    t_c: f64,
    t_a: f64,
}

impl MasterSlaveHooks for ConstHooks {
    fn produce(&mut self, _w: usize, _eval_id: u64, _now: f64) -> f64 {
        0.0
    }
    fn evaluation_time(&mut self, _w: usize, _eval_id: u64) -> f64 {
        self.t_f
    }
    fn consume(&mut self, _w: usize, _eval_id: u64, _now: f64) -> f64 {
        self.t_a
    }
    fn comm_time(&mut self) -> f64 {
        self.t_c
    }
}

fn objective_vec(m: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..2.0, m)
}

/// One step of the stateful ε-archive test: mirror the three things the
/// algorithm does to its archive over a run — insert candidates, empty it
/// at a restart, and rebuild it under a different ε resolution (re-adding
/// the surviving members, as `restart` does).
#[derive(Debug, Clone)]
enum ArchiveOp {
    Add(Vec<f64>),
    Truncate,
    EpsilonRescale(f64),
}

fn archive_op(m: usize) -> impl Strategy<Value = ArchiveOp> {
    prop_oneof![
        8 => objective_vec(m).prop_map(ArchiveOp::Add),
        1 => Just(ArchiveOp::Truncate),
        2 => (0.5f64..3.0).prop_map(ArchiveOp::EpsilonRescale),
    ]
}

/// Times the event-queue oracle draws from: ties, both zeros, subnormals
/// and the top of the finite range.
const QUEUE_TIMES: [f64; 9] = [
    0.0,
    -0.0,
    5e-324,
    1e-310,
    1.0,
    2.0,
    f64::MAX / 2.0,
    f64::MAX * 0.75,
    f64::MAX,
];

/// Delays for `schedule_in`, small enough never to overflow past f64::MAX.
const QUEUE_DELAYS: [f64; 5] = [0.0, -0.0, 5e-324, 1.0, 1.5];

/// The event queue's specification: a vector scanned for the least
/// `(time, insertion)` pair by `partial_cmp`.
#[derive(Default)]
struct ReferenceQueue {
    pending: Vec<(f64, u64, usize)>,
    now: f64,
    seq: u64,
}

impl ReferenceQueue {
    fn schedule_at(&mut self, at: f64, payload: usize) {
        self.pending.push((at, self.seq, payload));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, usize, u64)> {
        let least = (0..self.pending.len()).min_by(|&a, &b| {
            let (ta, sa, _) = self.pending[a];
            let (tb, sb, _) = self.pending[b];
            ta.partial_cmp(&tb)
                .expect("no NaN is scheduled")
                .then(sa.cmp(&sb))
        })?;
        let (time, _, payload) = self.pending.remove(least);
        self.now = time;
        Some((time.to_bits(), payload, time.to_bits()))
    }
}

/// One pop of `q` as `(time bits, payload, clock bits)`.
fn popped(q: &mut EventQueue<usize>) -> Option<(u64, usize, u64)> {
    q.pop()
        .map(|(time, payload)| (time.to_bits(), payload, q.now().to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // -----------------------------------------------------------------
    // Dominance
    // -----------------------------------------------------------------

    #[test]
    fn pareto_dominance_is_antisymmetric(a in objective_vec(4), b in objective_vec(4)) {
        let ab = pareto_dominance_objectives(&a, &b);
        let ba = pareto_dominance_objectives(&b, &a);
        prop_assert_eq!(ab, ba.flip());
    }

    #[test]
    fn pareto_dominance_is_irreflexive(a in objective_vec(5)) {
        prop_assert_eq!(pareto_dominance_objectives(&a, &a), Dominance::NonDominated);
    }

    #[test]
    fn epsilon_dominance_is_implied_by_strong_pareto_dominance(
        a in objective_vec(3),
        shift in prop::collection::vec(0.3f64..1.0, 3),
    ) {
        // b = a + shift with every shift ≥ 0.3 > ε = 0.25 guarantees a's
        // box dominates b's box.
        let b: Vec<f64> = a.iter().zip(&shift).map(|(x, s)| x + s).collect();
        let eps = vec![0.25; 3];
        prop_assert_eq!(epsilon_box_dominance(&a, &b, &eps), BoxDominance::Dominates);
    }

    #[test]
    fn nondominated_filter_is_idempotent(pts in prop::collection::vec(objective_vec(3), 1..40)) {
        let once = nondominated_filter(pts);
        let twice = nondominated_filter(once.clone());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn nondominated_subset_is_mutually_nondominated(
        pts in prop::collection::vec(objective_vec(3), 1..40),
    ) {
        let idx = nondominated_indices(&pts);
        for (i, &a) in idx.iter().enumerate() {
            for &b in &idx[i + 1..] {
                prop_assert_eq!(
                    pareto_dominance_objectives(&pts[a], &pts[b]),
                    Dominance::NonDominated
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // ε-archive
    // -----------------------------------------------------------------

    #[test]
    fn archive_invariants_hold_under_random_insertion(
        pts in prop::collection::vec(objective_vec(4), 1..150),
        eps in 0.05f64..0.5,
    ) {
        let mut archive = EpsilonArchive::uniform(4, eps);
        for p in pts {
            archive.add(Solution::from_parts(vec![], p, vec![]));
        }
        prop_assert!(archive.check_invariants().is_ok());
        prop_assert!(!archive.is_empty());
    }

    #[test]
    fn archive_size_is_bounded_by_box_lattice(
        pts in prop::collection::vec(objective_vec(2), 1..200),
    ) {
        // Objectives live in [0,2): with ε = 0.5 there are 4 boxes per
        // dimension; a 2-D nondominated box set has at most 4 + 4 − 1
        // staircase cells… conservatively ≤ 8.
        let mut archive = EpsilonArchive::uniform(2, 0.5);
        for p in pts {
            archive.add(Solution::from_parts(vec![], p, vec![]));
        }
        prop_assert!(archive.len() <= 8, "archive grew to {}", archive.len());
    }

    #[test]
    fn archive_members_are_never_pareto_dominated_by_later_rejects(
        pts in prop::collection::vec(objective_vec(3), 2..80),
    ) {
        // Feed everything; afterwards no member may dominate another.
        let mut archive = EpsilonArchive::uniform(3, 0.1);
        for p in &pts {
            archive.add(Solution::from_parts(vec![], p.clone(), vec![]));
        }
        let members = archive.objective_vectors();
        for (i, a) in members.iter().enumerate() {
            for b in members.iter().skip(i + 1) {
                // Same-box replacement keeps a single representative; the
                // representatives may weakly dominate only across distinct
                // boxes — strong mutual domination must never occur.
                prop_assert_ne!(pareto_dominance_objectives(a, b), Dominance::Dominates);
                prop_assert_ne!(pareto_dominance_objectives(b, a), Dominance::Dominates);
            }
        }
    }

    #[test]
    fn archive_invariants_hold_under_op_sequences(
        ops in prop::collection::vec(archive_op(3), 1..120),
        eps0 in 0.05f64..0.4,
    ) {
        // Stateful check: after EVERY step of a random add / truncate /
        // ε-rescale sequence the archive must satisfy its full invariant
        // set (mutual ε-box nondominance, box↔solution correspondence,
        // counter consistency) — not just at the end of a pure-insert run.
        let mut archive = EpsilonArchive::uniform(3, eps0);
        let mut epsilons = vec![eps0; 3];
        for op in ops {
            let op_desc = format!("{op:?}");
            match op {
                ArchiveOp::Add(p) => {
                    archive.add(Solution::from_parts(vec![], p, vec![]));
                }
                ArchiveOp::Truncate => archive.clear_solutions(),
                ArchiveOp::EpsilonRescale(factor) => {
                    // ε never shrinks below a floor so the box lattice stays
                    // finite over long sequences.
                    for e in &mut epsilons {
                        *e = (*e * factor).max(1e-3);
                    }
                    let survivors: Vec<Solution> =
                        archive.members().map(|m| m.to_solution()).collect();
                    archive = EpsilonArchive::new(epsilons.clone());
                    for s in survivors {
                        archive.add(s);
                    }
                }
            }
            if let Err(broken) = archive.check_invariants() {
                prop_assert!(false, "invariant broken after {op_desc}: {broken}");
            }
        }
    }

    // -----------------------------------------------------------------
    // Hypervolume
    // -----------------------------------------------------------------

    #[test]
    fn hypervolume_is_monotone_in_set_growth(
        pts in prop::collection::vec(objective_vec(3), 1..12),
        extra in objective_vec(3),
    ) {
        let r = vec![2.0; 3];
        let base = hypervolume(&pts, &r);
        let mut grown = pts;
        grown.push(extra);
        let bigger = hypervolume(&grown, &r);
        prop_assert!(bigger >= base - 1e-12, "HV shrank: {base} → {bigger}");
    }

    #[test]
    fn hypervolume_is_bounded_by_the_box(pts in prop::collection::vec(objective_vec(4), 1..10)) {
        let r = vec![2.0; 4];
        let hv = hypervolume(&pts, &r);
        prop_assert!(hv >= 0.0);
        prop_assert!(hv <= 2.0f64.powi(4) + 1e-9);
    }

    #[test]
    fn dominated_points_do_not_change_hypervolume(
        pts in prop::collection::vec(objective_vec(3), 1..10),
        idx in 0usize..10,
        bump in prop::collection::vec(0.0f64..0.5, 3),
    ) {
        let r = vec![3.0; 3];
        let base = hypervolume(&pts, &r);
        let src = &pts[idx % pts.len()];
        let dominated: Vec<f64> = src.iter().zip(&bump).map(|(x, b)| x + b).collect();
        let mut grown = pts.clone();
        grown.push(dominated);
        let after = hypervolume(&grown, &r);
        prop_assert!((after - base).abs() < 1e-9, "{base} vs {after}");
    }

    // -----------------------------------------------------------------
    // Operators
    // -----------------------------------------------------------------

    #[test]
    fn all_operators_stay_in_bounds_on_random_parents(
        seed in 0u64..1_000,
        l in 1usize..12,
    ) {
        use rand::{Rng, SeedableRng};
        let bounds: Vec<Bounds> = (0..l).map(|_| Bounds::new(-1.5, 2.5)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for op in standard_borg_operators(l) {
            let parents: Vec<Vec<f64>> = (0..op.arity())
                .map(|_| (0..l).map(|i| rng.gen_range(bounds[i].lower..bounds[i].upper)).collect())
                .collect();
            let refs: Vec<&[f64]> = parents.iter().map(|p| p.as_slice()).collect();
            let child = op.evolve(&refs, &bounds, &mut rng);
            prop_assert_eq!(child.len(), l);
            for (c, b) in child.iter().zip(&bounds) {
                prop_assert!(c.is_finite() && b.contains(*c), "{} out of bounds: {}", op.name(), c);
            }
        }
    }

    // -----------------------------------------------------------------
    // Master-slave queueing engine
    // -----------------------------------------------------------------

    #[test]
    fn async_elapsed_respects_physical_bounds(
        workers in 1usize..64,
        n in 10u64..500,
        t_f in 1e-5f64..0.1,
        t_c in 1e-7f64..1e-4,
        t_a in 1e-7f64..1e-3,
    ) {
        let mut hooks = ConstHooks { t_f, t_c, t_a };
        let out = run_async(
            &mut hooks,
            workers,
            n,
            &borg_obs::NoopRecorder,
        );
        prop_assert_eq!(out.completed, n);
        // Work conservation: W workers cannot evaluate faster than W-way.
        let work_bound = n as f64 * t_f / workers as f64;
        prop_assert!(out.elapsed >= work_bound - 1e-12, "below work bound");
        // Master throughput floor (minus the final send we do not charge).
        let master_bound = n as f64 * (2.0 * t_c + t_a) - t_c;
        prop_assert!(out.elapsed >= master_bound - 1e-12, "below master bound");
        // Never slower than fully-serial execution through one worker plus
        // the pipeline fill.
        let serial_bound =
            n as f64 * (t_f + 2.0 * t_c + t_a) + workers as f64 * (t_a + t_c) + t_f;
        prop_assert!(out.elapsed <= serial_bound + 1e-9, "above serial bound");
        prop_assert!((0.0..=1.0 + 1e-9).contains(&out.master_utilization));
        prop_assert!(out.mean_wait >= 0.0 && out.max_wait >= out.mean_wait);
    }

    #[test]
    fn duplicate_suppression_never_double_counts_nfe(
        workers in 2usize..24,
        n in 20u64..400,
        duplicate_rate in 0.0f64..0.5,
        drop_rate in 0.0f64..0.3,
        seed in 0u64..1_000,
    ) {
        // Arbitrary duplication and loss on the result path: the master
        // must consume exactly N results — a duplicated result must never
        // advance the NFE counter twice, and a dropped one must be
        // reissued, not forgotten.
        let (t_f, t_c, t_a) = (0.01, 0.000_006, 0.000_03);
        let plan = FaultPlan::new(
            FaultConfig { duplicate_rate, drop_rate, ..FaultConfig::default() },
            workers,
            n,
            seed,
        );
        let policy = RecoveryPolicy::from_expected_eval_time(t_f, 4.0);
        let run = run_async_with(
            &mut ConstHooks { t_f, t_c, t_a },
            EngineConfig::fault_tolerant_async(workers, n, policy),
            &plan,
            &borg_obs::NoopRecorder,
        );
        prop_assert_eq!(run.outcome.completed, n, "budget not exactly met");
        // Ledger consistency: every detected fault recovered, and each
        // suppressed duplicate / dropped result is accounted as waste.
        prop_assert!(run.fault_log.all_recovered());
        let dupes = run.fault_log.duplicates_suppressed;
        let drops = run.fault_log.injected_of(
            borg_repro::desim::fault::FaultKind::MessageDrop) as u64;
        prop_assert!(run.fault_log.wasted_nfe >= dupes.max(drops),
            "waste accounting lost events: wasted {} dupes {} drops {}",
            run.fault_log.wasted_nfe, dupes, drops);
    }

    #[test]
    fn sync_is_never_faster_than_async_with_constant_times(
        workers in 1usize..32,
        gens in 2u64..20,
        t_f in 1e-4f64..0.05,
    ) {
        let (t_c, t_a) = (0.000_006, 0.000_03);
        let n = gens * (workers as u64 + 1);
        let a = run_async(
            &mut ConstHooks { t_f, t_c, t_a },
            workers,
            n,
            &borg_obs::NoopRecorder,
        );
        let s = run_sync(
            &mut ConstHooks { t_f, t_c, t_a },
            workers,
            n,
            &borg_obs::NoopRecorder,
        );
        // The sync topology has one more evaluator (the master) but pays
        // the barrier + P·T_A per generation; with constant times and the
        // master's own T_F in the critical path it can never beat async by
        // more than the one-extra-evaluator advantage.
        prop_assert!(
            s.elapsed >= a.elapsed * (workers as f64) / (workers as f64 + 1.0) - t_f,
            "sync {} vs async {}",
            s.elapsed,
            a.elapsed
        );
    }

    // -----------------------------------------------------------------
    // Event queue & distributions
    // -----------------------------------------------------------------

    #[test]
    fn event_queue_pops_sorted(ops in prop::collection::vec((0u8..5, 0usize..QUEUE_TIMES.len()), 1..300)) {
        // Random interleavings of schedule_at / schedule_in / pop, driven
        // against the queue and a reference that scans a vector for the
        // least (time, insertion) pair. Times come from a small set, so
        // ties are common, and include ±0, subnormals and values near
        // f64::MAX; every pop must agree on the time's bits, the payload
        // and the clock.
        let mut q = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        for (payload, &(kind, i)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    let t = QUEUE_TIMES[i];
                    let at = if t >= q.now() { t } else { q.now() };
                    q.schedule_at(at, payload);
                    reference.schedule_at(at, payload);
                }
                2 => {
                    let delay = QUEUE_DELAYS[i % QUEUE_DELAYS.len()];
                    q.schedule_in(delay, payload);
                    reference.schedule_at(reference.now + delay, payload);
                }
                _ => prop_assert_eq!(popped(&mut q), reference.pop()),
            }
            prop_assert_eq!(q.len(), reference.pending.len());
        }
        while !reference.pending.is_empty() {
            prop_assert_eq!(popped(&mut q), reference.pop());
        }
        prop_assert_eq!(popped(&mut q), None);
    }

    #[test]
    fn distributions_sample_within_support(seed in 0u64..500, mean in 0.0001f64..1.0) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for d in [
            Dist::Constant(mean),
            Dist::normal_cv(mean, 0.1),
            Dist::Exponential { rate: 1.0 / mean },
            Dist::Gamma { shape: 2.0, scale: mean / 2.0 },
            Dist::Weibull { shape: 1.5, scale: mean },
            Dist::LogNormal { mu: mean.ln(), sigma: 0.2 },
        ] {
            for _ in 0..16 {
                let x = d.sample(&mut rng);
                prop_assert!(x.is_finite() && x >= 0.0, "{d:?} sampled {x}");
            }
        }
    }
}
