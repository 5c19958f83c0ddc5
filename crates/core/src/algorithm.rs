//! The Borg MOEA engine and serial runner.
//!
//! The engine is deliberately split into two halves:
//!
//! * [`BorgEngine::produce`] — generate the next candidate's decision
//!   variables (selection + variation, or random/injected solutions while
//!   the population is filling), and
//! * [`BorgEngine::consume`] — absorb an evaluated candidate (population
//!   replacement, archive insertion, operator-probability adaptation,
//!   stagnation detection, restarts).
//!
//! A serial run alternates `produce → evaluate → consume`; the
//! asynchronous master-slave executors in `borg-parallel` interleave many
//! outstanding candidates, calling `produce` whenever a worker goes idle and
//! `consume` whenever a result returns. The time spent inside
//! `produce`+`consume` is exactly the paper's `T_A`; the evaluation is
//! `T_F`.

use crate::archive::EpsilonArchive;
use crate::operators::{
    standard_borg_operators, AdaptiveEnsemble, UniformMutation, VariationScratch,
};
use crate::population::Population;
use crate::problem::{Bounds, Problem};
use crate::rng::SplitMix64;
use crate::solution::{Role, Solution};

use crate::solution::SolutionArena;
use rand::rngs::StdRng;
use rand::Rng;

/// Initial (and minimum) population size (Hadka & Reed 2012).
const INITIAL_POPULATION_SIZE: usize = 100;

/// Injection rate γ: target population size = γ × archive size after a
/// restart.
const INJECTION_RATE: f64 = 4.0;

/// Selection ratio τ: tournament size = max(2, ⌈τ × population size⌉).
const SELECTION_RATIO: f64 = 0.02;

/// Stagnation window: ε-progress is checked every this many consumed
/// evaluations (the ensemble's update cadence too).
const WINDOW_SIZE: u64 = 100;

/// Tolerated relative deviation of the population/archive ratio from γ
/// before a restart is forced.
const INJECTION_TOLERANCE: f64 = 0.25;

/// Borg MOEA configuration: the ε vector and the switches the experiments
/// turn. Every other parameter is a constant at the Hadka & Reed (2012)
/// default, as in the paper's runs.
#[derive(Debug, Clone)]
pub struct BorgConfig {
    /// Per-objective ε values for the ε-dominance archive.
    pub epsilons: Vec<f64>,
    /// Enable restart machinery (ablation switch; default true).
    pub restarts_enabled: bool,
    /// Enable operator auto-adaptation (ablation switch; default true).
    pub adaptation_enabled: bool,
    /// Collect a wall-clock breakdown of `T_A` by engine component
    /// (selection, variation, archive, population, adaptation, restarts).
    /// Adds two `Instant::now()` calls per component; default off.
    pub profile_ta: bool,
}

impl BorgConfig {
    /// Canonical configuration for a problem with `m` objectives using a
    /// uniform ε.
    pub fn new(m: usize, epsilon: f64) -> Self {
        Self {
            epsilons: vec![epsilon; m],
            restarts_enabled: true,
            adaptation_enabled: true,
            profile_ta: false,
        }
    }

    fn validate(&self) {
        assert!(!self.epsilons.is_empty(), "missing epsilons");
    }
}

/// A candidate produced by the engine, awaiting evaluation.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Decision variables to evaluate.
    pub variables: Vec<f64>,
    /// Producing operator index (None for random/injected candidates).
    pub operator: Option<usize>,
}

/// Why the engine produced a candidate (exposed for instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Population below capacity: producing uniform-random candidates.
    InitialFill,
    /// Population below capacity after a restart: producing mutated archive
    /// members.
    InjectionFill,
    /// Normal steady-state variation.
    Steady,
}

/// Cumulative engine statistics.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Evaluated candidates consumed so far (the paper's running `N`).
    pub nfe: u64,
    /// Number of restarts triggered.
    pub restarts: u64,
    /// ε-progress (archive improvements) at the last stagnation check.
    pub improvements_at_last_check: u64,
    /// Candidates produced so far (≥ nfe when evaluations are in flight).
    pub produced: u64,
}

/// Cumulative wall-clock breakdown of the master's algorithm time `T_A`
/// by component (seconds; populated only when [`BorgConfig::profile_ta`]
/// is set). The dominant growth terms are `population` (the steady-state
/// replacement scan is O(population size)) and `archive` (O(archive
/// size) ε-box comparisons) — which is why the paper's measured `T_A`
/// grows with processor count and problem difficulty.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaProfile {
    /// Tournament selection + parent gathering.
    pub selection: f64,
    /// Variation-operator application.
    pub variation: f64,
    /// ε-archive insertion.
    pub archive: f64,
    /// Population replacement (offer/fill).
    pub population: f64,
    /// Operator-probability adaptation.
    pub adaptation: f64,
    /// Restart checks and execution.
    pub restarts: f64,
}

impl TaProfile {
    /// Total profiled seconds.
    pub fn total(&self) -> f64 {
        self.selection
            + self.variation
            + self.archive
            + self.population
            + self.adaptation
            + self.restarts
    }
}

/// The Borg MOEA engine (master-side state machine).
pub struct BorgEngine {
    bounds: Vec<Bounds>,
    num_objectives: usize,
    num_constraints: usize,
    config: BorgConfig,
    population: Population,
    archive: EpsilonArchive,
    ensemble: AdaptiveEnsemble,
    restart_mutation: UniformMutation,
    rng: StdRng,
    stats: EngineStats,
    tournament_size: usize,
    /// Candidates produced for filling (initial or injection) not yet
    /// consumed; prevents over-producing fill candidates under asynchrony.
    fill_in_flight: usize,
    phase: Phase,
    profile: TaProfile,
    /// Buffer pool recycling consumed candidates back into new ones.
    arena: SolutionArena,
    /// Reused parent-index buffer for steady-state selection.
    scratch_parents: Vec<usize>,
    /// Reused temporaries of the multiparent operators.
    scratch_variation: VariationScratch,
}

/// Maximum operator arity the engine's stack-allocated parent-slice buffer
/// supports (the standard ensemble tops out at 10 for PCX/SPX/UNDX).
const MAX_ARITY: usize = 16;

impl BorgEngine {
    /// Creates an engine for `problem` with the given config and seed.
    pub fn new<P: Problem + ?Sized>(problem: &P, config: BorgConfig, seed: u64) -> Self {
        config.validate();
        assert_eq!(
            config.epsilons.len(),
            problem.num_objectives(),
            "epsilon count must match objective count"
        );
        let bounds = problem.all_bounds();
        let l = bounds.len();
        let mut split = SplitMix64::new(seed);
        let rng = split.derive("borg-engine");
        let ensemble = AdaptiveEnsemble::new(standard_borg_operators(l));
        let tournament_size = tournament_size(SELECTION_RATIO, INITIAL_POPULATION_SIZE);
        Self {
            bounds,
            num_objectives: problem.num_objectives(),
            num_constraints: problem.num_constraints(),
            population: Population::new(INITIAL_POPULATION_SIZE),
            archive: EpsilonArchive::new(config.epsilons.clone()),
            ensemble,
            restart_mutation: UniformMutation::new(1.0 / l.max(1) as f64),
            rng,
            config,
            stats: EngineStats::default(),
            tournament_size,
            fill_in_flight: 0,
            phase: Phase::InitialFill,
            profile: TaProfile::default(),
            arena: SolutionArena::default(),
            scratch_parents: Vec::with_capacity(MAX_ARITY),
            scratch_variation: VariationScratch::default(),
        }
    }

    /// The ε-dominance archive (best solutions found).
    pub fn archive(&self) -> &EpsilonArchive {
        &self.archive
    }

    /// The current population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Number of consumed (fully evaluated) candidates.
    pub fn nfe(&self) -> u64 {
        self.stats.nfe
    }

    /// Current operator selection probabilities.
    pub fn operator_probabilities(&self) -> &[f64] {
        self.ensemble.probabilities()
    }

    /// Operator names, aligned with [`Self::operator_probabilities`].
    pub fn operator_names(&self) -> Vec<&str> {
        self.ensemble.names()
    }

    /// The `T_A` component breakdown (all zeros unless
    /// [`BorgConfig::profile_ta`] was enabled).
    pub fn ta_profile(&self) -> &TaProfile {
        &self.profile
    }

    /// Produces the next candidate to evaluate.
    // borg-lint: hot-path
    pub fn produce(&mut self) -> Candidate {
        self.stats.produced += 1;
        let needed_fill = self
            .population
            .capacity()
            .saturating_sub(self.population.len() + self.fill_in_flight);
        if needed_fill > 0 {
            self.fill_in_flight += 1;
            let variables = match self.phase {
                Phase::InjectionFill if !self.archive.is_empty() => {
                    // Inject: mutate a random archive member with UM(1/L).
                    let i = self.rng.gen_range(0..self.archive.len());
                    let member = self.archive.member(i).variables();
                    let mut vars = self.arena.filled(Role::Variables, member);
                    self.restart_mutation
                        .mutate(&mut vars, &self.bounds, &mut self.rng);
                    vars
                }
                _ => self.random_variables(),
            };
            return Candidate {
                variables,
                operator: None,
            };
        }

        if self.population.is_empty() {
            // More outstanding requests than the population can seat (e.g.
            // worker count exceeds the initial population size, or a
            // restart just emptied the population with many evaluations in
            // flight): hand out uniform-random candidates rather than
            // blocking — the asynchronous master never waits.
            return Candidate {
                variables: self.random_variables(),
                operator: None,
            };
        }

        // Steady state: adaptive operator selection + tournament parents.
        self.phase = Phase::Steady;
        let op_idx = if self.config.adaptation_enabled {
            self.ensemble.select(&mut self.rng)
        } else {
            0 // SBX+PM only (ablation mode)
        };
        let arity = self.ensemble.operator(op_idx).arity();
        debug_assert!(arity <= MAX_ARITY, "operator arity exceeds MAX_ARITY");
        let t0 = self.config.profile_ta.then(std::time::Instant::now);
        self.scratch_parents.clear();
        for _ in 0..arity {
            let idx = self
                .population
                .tournament_select(self.tournament_size, &mut self.rng);
            self.scratch_parents.push(idx);
        }
        // Parent slices live on the stack: borrows of the population, which
        // stays untouched until the offspring is consumed.
        let mut parent_refs: [&[f64]; MAX_ARITY] = [&[]; MAX_ARITY];
        for (slot, &i) in parent_refs.iter_mut().zip(&self.scratch_parents) {
            *slot = self.population.variables(i);
        }
        if let Some(t) = t0 {
            self.profile.selection += t.elapsed().as_secs_f64();
        }
        let t1 = self.config.profile_ta.then(std::time::Instant::now);
        let mut variables = self.arena.take(Role::Variables);
        self.ensemble.operator(op_idx).evolve_into(
            &parent_refs[..arity],
            &self.bounds,
            &mut self.rng,
            &mut self.scratch_variation,
            &mut variables,
        );
        if let Some(t) = t1 {
            self.profile.variation += t.elapsed().as_secs_f64();
        }
        Candidate {
            variables,
            operator: Some(op_idx),
        }
    }

    /// Consumes an evaluated candidate: the archive and the population
    /// copy in its rows as they accept it, and its buffers go back to the
    /// arena for the next candidate.
    ///
    /// `solution.operator` should carry the candidate's operator tag so the
    /// archive can credit contributions (use [`Self::make_solution_recycled`]).
    // borg-lint: hot-path
    pub fn consume(&mut self, solution: Solution) {
        debug_assert_eq!(solution.num_objectives(), self.num_objectives);
        self.stats.nfe += 1;

        let t0 = self.config.profile_ta.then(std::time::Instant::now);
        self.archive.offer(&solution);
        if let Some(t) = t0 {
            self.profile.archive += t.elapsed().as_secs_f64();
        }
        let t1 = self.config.profile_ta.then(std::time::Instant::now);
        if self.fill_in_flight > 0 && !self.population.is_full() {
            // Initial or injected candidate: goes straight into the
            // population.
            self.fill_in_flight -= 1;
            self.population.fill(solution.as_member());
        } else {
            // A fill candidate may arrive after the population filled up
            // (possible when a restart shrank capacity mid-flight).
            self.fill_in_flight = self.fill_in_flight.saturating_sub(1);
            self.population.offer(solution.as_member(), &mut self.rng);
        }
        if let Some(t) = t1 {
            self.profile.population += t.elapsed().as_secs_f64();
        }
        self.arena.recycle(solution);

        if self.config.adaptation_enabled {
            let t0 = self.config.profile_ta.then(std::time::Instant::now);
            self.ensemble.on_evaluation(self.archive.operator_credits());
            if let Some(t) = t0 {
                self.profile.adaptation += t.elapsed().as_secs_f64();
            }
        }

        if self.config.restarts_enabled && self.stats.nfe.is_multiple_of(WINDOW_SIZE) {
            let t0 = self.config.profile_ta.then(std::time::Instant::now);
            self.check_restart();
            if let Some(t) = t0 {
                self.profile.restarts += t.elapsed().as_secs_f64();
            }
        }
    }

    /// Builds an evaluated [`Solution`] from a candidate and its objective /
    /// constraint values, preserving the operator tag. The values are copied
    /// into arena-recycled buffers, so evaluators reuse their own output
    /// buffers (e.g. [`run_serial`]).
    // borg-lint: hot-path
    pub fn make_solution_recycled(
        &mut self,
        candidate: Candidate,
        objectives: &[f64],
        constraints: &[f64],
    ) -> Solution {
        debug_assert_eq!(objectives.len(), self.num_objectives);
        debug_assert_eq!(constraints.len(), self.num_constraints);
        let objs = self.arena.filled(Role::Objectives, objectives);
        let cons = self.arena.filled(Role::Constraints, constraints);
        let mut s = Solution::from_parts(candidate.variables, objs, cons);
        s.operator = candidate.operator;
        s
    }

    /// `(pool hits, pool misses)` of the candidate-buffer arena.
    pub fn arena_stats(&self) -> (u64, u64) {
        self.arena.stats()
    }

    // borg-lint: hot-path
    fn random_variables(&mut self) -> Vec<f64> {
        let mut vars = self.arena.take(Role::Variables);
        for b in &self.bounds {
            vars.push(if b.range() > 0.0 {
                self.rng.gen_range(b.lower..=b.upper)
            } else {
                b.lower
            });
        }
        vars
    }

    /// Stagnation / ratio check; triggers a restart when needed.
    fn check_restart(&mut self) {
        let progressed = self.archive.improvements() > self.stats.improvements_at_last_check;
        self.stats.improvements_at_last_check = self.archive.improvements();

        let archive_len = self.archive.len().max(1);
        let ratio = self.population.capacity() as f64 / archive_len as f64;
        let gamma = INJECTION_RATE;
        let ratio_bad = ratio > gamma * (1.0 + INJECTION_TOLERANCE)
            || ratio < gamma * (1.0 - INJECTION_TOLERANCE);

        // Only the ratio being too *small* (archive outgrew the population)
        // or stagnation forces a restart; a too-large ratio right after
        // initialization is normal while the archive is still tiny, so Borg
        // additionally requires stagnation in that direction.
        let too_small = ratio < gamma * (1.0 - INJECTION_TOLERANCE);
        if !progressed || (ratio_bad && too_small) {
            self.restart();
        }
    }

    /// Executes a restart: resize population to γ×|archive|, refill with the
    /// archive, and stream mutated-archive injections via `produce`.
    fn restart(&mut self) {
        self.stats.restarts += 1;
        let target = ((INJECTION_RATE * self.archive.len() as f64).ceil() as usize)
            .max(INITIAL_POPULATION_SIZE);
        // The archive's rows are copied over the retired population's.
        self.population.reset(target, &mut self.rng);
        for member in self.archive.members() {
            if !self.population.fill(member) {
                break;
            }
        }
        self.tournament_size = tournament_size(SELECTION_RATIO, target);
        self.fill_in_flight = 0;
        self.phase = Phase::InjectionFill;
    }
}

impl std::fmt::Debug for BorgEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BorgEngine")
            .field("nfe", &self.stats.nfe)
            .field("population", &self.population.len())
            .field("archive", &self.archive.len())
            .field("restarts", &self.stats.restarts)
            .finish()
    }
}

fn tournament_size(ratio: f64, population: usize) -> usize {
    ((ratio * population as f64).ceil() as usize).max(2)
}

/// Runs the Borg MOEA serially for `max_nfe` evaluations.
///
/// `observer` is called after each consumed evaluation with the engine (use
/// it to record archive snapshots, hypervolume trajectories, etc.).
pub fn run_serial<P, F>(
    problem: &P,
    config: BorgConfig,
    seed: u64,
    max_nfe: u64,
    mut observer: F,
) -> BorgEngine
where
    P: Problem + ?Sized,
    F: FnMut(&BorgEngine),
{
    let mut engine = BorgEngine::new(problem, config, seed);
    let mut objs = vec![0.0; problem.num_objectives()];
    let mut cons = vec![0.0; problem.num_constraints()];
    while engine.nfe() < max_nfe {
        let cand = engine.produce();
        problem.evaluate(&cand.variables, &mut objs, &mut cons);
        let sol = engine.make_solution_recycled(cand, &objs, &cons);
        engine.consume(sol);
        observer(&engine);
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-objective DTLZ2-like toy used by the engine tests (the real DTLZ
    /// suite lives in `borg-problems`; core tests stay self-contained).
    struct TwoSphere;

    impl Problem for TwoSphere {
        fn name(&self) -> &str {
            "TwoSphere"
        }
        fn num_variables(&self) -> usize {
            6
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn bounds(&self, _i: usize) -> Bounds {
            Bounds::unit()
        }
        fn evaluate(&self, vars: &[f64], objs: &mut [f64], _cons: &mut [f64]) {
            // Convex bi-objective: f1 = x0, f2 = g (1 - sqrt(x0/g)) with
            // g = 1 + sum of remaining vars (ZDT1 form).
            let g = 1.0 + 9.0 * vars[1..].iter().sum::<f64>() / (vars.len() - 1) as f64;
            objs[0] = vars[0];
            objs[1] = g * (1.0 - (vars[0] / g).sqrt());
        }
    }

    fn config() -> BorgConfig {
        BorgConfig::new(2, 0.01)
    }

    /// A constant-objective problem: no ε-progress after the first box, so
    /// every stagnation window ends in a restart.
    struct Flat;

    impl Problem for Flat {
        fn name(&self) -> &str {
            "Flat"
        }
        fn num_variables(&self) -> usize {
            3
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn bounds(&self, _i: usize) -> Bounds {
            Bounds::unit()
        }
        fn evaluate(&self, _v: &[f64], objs: &mut [f64], _c: &mut [f64]) {
            objs[0] = 0.5;
            objs[1] = 0.5;
        }
    }

    #[test]
    fn engine_counts_nfe() {
        let e = run_serial(&TwoSphere, config(), 1, 500, |_| {});
        assert_eq!(e.nfe(), 500);
        assert_eq!(e.stats().produced, 500);
    }

    #[test]
    fn engine_is_deterministic() {
        let a = run_serial(&TwoSphere, config(), 42, 2000, |_| {});
        let b = run_serial(&TwoSphere, config(), 42, 2000, |_| {});
        assert_eq!(a.archive().len(), b.archive().len());
        assert_eq!(
            a.archive().objective_vectors(),
            b.archive().objective_vectors()
        );
        assert_eq!(a.stats().restarts, b.stats().restarts);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_serial(&TwoSphere, config(), 1, 2000, |_| {});
        let b = run_serial(&TwoSphere, config(), 2, 2000, |_| {});
        assert_ne!(
            a.archive().objective_vectors(),
            b.archive().objective_vectors()
        );
    }

    #[test]
    fn engine_converges_toward_front() {
        // ZDT1's Pareto front has g = 1; after a few thousand evaluations
        // archive members should be near it.
        let e = run_serial(&TwoSphere, config(), 7, 10_000, |_| {});
        assert!(
            e.archive().len() >= 5,
            "archive too small: {}",
            e.archive().len()
        );
        let worst_sum = e
            .archive()
            .members()
            .map(|s| {
                let f1 = s.objectives()[0];
                let f2 = s.objectives()[1];
                // Distance above the true front f2* = 1 − sqrt(f1).
                f2 - (1.0 - f1.sqrt())
            })
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(worst_sum < 0.35, "archive far from front: {worst_sum}");
    }

    #[test]
    fn archive_invariants_hold_throughout() {
        let mut checks = 0;
        run_serial(&TwoSphere, config(), 3, 3000, |e| {
            if e.nfe() % 500 == 0 {
                e.archive().check_invariants().unwrap();
                checks += 1;
            }
        });
        assert!(checks >= 6);
    }

    #[test]
    fn asynchronous_interleaving_matches_contract() {
        // Emulate 8 in-flight candidates (what the master-slave executor
        // does) and check the engine never panics and counts correctly.
        let problem = TwoSphere;
        let mut engine = BorgEngine::new(&problem, config(), 9);
        let mut queue: std::collections::VecDeque<Candidate> =
            (0..8).map(|_| engine.produce()).collect();
        let mut objs = vec![0.0; 2];
        let mut cons = vec![];
        for _ in 0..5000 {
            let cand = queue.pop_front().unwrap();
            problem.evaluate(&cand.variables, &mut objs, &mut cons);
            let sol = engine.make_solution_recycled(cand, &objs, &cons);
            engine.consume(sol);
            queue.push_back(engine.produce());
        }
        assert_eq!(engine.nfe(), 5000);
        assert_eq!(engine.stats().produced, 5008);
        engine.archive().check_invariants().unwrap();
    }

    #[test]
    fn steady_state_recycles_candidate_buffers() {
        // Every iteration's three buffer takes (variables, objectives,
        // constraints) are fed by the three buffers the previous candidate
        // returned once its rows were copied in: a serial run misses the
        // pool only for its first candidate, filling included.
        let e = run_serial(&TwoSphere, config(), 13, 3000, |_| {});
        let (hits, misses) = e.arena_stats();
        assert_eq!((hits, misses), (3 * 3000 - 3, 3), "arena not recycling");
    }

    #[test]
    fn restart_recycles_members() {
        // `Flat` restarts at every 100-evaluation window, and each restart
        // empties the population and refills it from the archive's rows.
        // The refill copies rows over the retired ones, and the injected
        // candidates that follow draw their buffers from the pool: from the
        // second restart on a run of 60 restarts asks the pool for nothing
        // it does not have.
        let mut settled = None;
        let e = run_serial(&Flat, BorgConfig::new(2, 0.1), 5, 6_000, |e| {
            if e.nfe() == 200 {
                settled = Some(e.arena_stats().1);
            }
        });
        assert!(
            e.stats().restarts >= 50,
            "restarts = {}",
            e.stats().restarts
        );
        let (hits, misses) = e.arena_stats();
        assert_eq!(Some(misses), settled, "restarts still miss the pool");
        assert!(hits > 50 * misses, "hits={hits} misses={misses}");
    }

    #[test]
    fn ta_profile_populates_only_when_enabled() {
        let off = run_serial(&TwoSphere, config(), 5, 2000, |_| {});
        assert_eq!(*off.ta_profile(), crate::algorithm::TaProfile::default());

        let mut cfg = config();
        cfg.profile_ta = true;
        let on = run_serial(&TwoSphere, cfg, 5, 2000, |_| {});
        let p = on.ta_profile();
        assert!(p.selection > 0.0, "{p:?}");
        assert!(p.variation > 0.0, "{p:?}");
        assert!(p.archive > 0.0, "{p:?}");
        assert!(p.population > 0.0, "{p:?}");
        assert!(p.adaptation > 0.0, "{p:?}");
        assert!(p.total() < 5.0, "profiled time implausible: {p:?}");
    }

    #[test]
    fn more_workers_than_population_capacity() {
        // P − 1 > initial population size: the master must keep producing
        // (random) candidates instead of panicking on an empty population.
        let problem = TwoSphere;
        let mut engine = BorgEngine::new(&problem, config(), 21);
        let in_flight = 350; // > initial population of 100
        let mut queue: std::collections::VecDeque<Candidate> =
            (0..in_flight).map(|_| engine.produce()).collect();
        let mut objs = vec![0.0; 2];
        let mut cons = vec![];
        for _ in 0..3000 {
            let cand = queue.pop_front().unwrap();
            problem.evaluate(&cand.variables, &mut objs, &mut cons);
            let sol = engine.make_solution_recycled(cand, &objs, &cons);
            engine.consume(sol);
            queue.push_back(engine.produce());
        }
        assert_eq!(engine.nfe(), 3000);
        engine.archive().check_invariants().unwrap();
    }

    #[test]
    fn restarts_fire_on_stagnating_problem() {
        let e = run_serial(&Flat, BorgConfig::new(2, 0.1), 5, 2000, |_| {});
        assert!(e.stats().restarts >= 5, "restarts = {}", e.stats().restarts);
    }

    #[test]
    fn restarts_can_be_disabled() {
        let mut cfg = BorgConfig::new(2, 0.1);
        cfg.restarts_enabled = false;
        let e = run_serial(&Flat, cfg, 5, 2000, |_| {});
        assert_eq!(e.stats().restarts, 0);
    }

    #[test]
    fn adaptation_shifts_operator_probabilities() {
        let e = run_serial(&TwoSphere, config(), 11, 10_000, |_| {});
        let p = e.operator_probabilities();
        let uniform = 1.0 / p.len() as f64;
        // After 10k NFE on a smooth problem the distribution must have
        // moved away from uniform.
        assert!(
            p.iter().any(|&x| (x - uniform).abs() > 0.05),
            "probabilities never adapted: {p:?}"
        );
    }

    #[test]
    #[should_panic(expected = "epsilon count")]
    fn mismatched_epsilons_panic() {
        BorgEngine::new(&TwoSphere, BorgConfig::new(3, 0.1), 1);
    }
}
